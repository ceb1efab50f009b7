//! # gb-serve — online serving for granular-ball models
//!
//! Turns a trained granulation ([`gbabs::RdGbgModel`]) into a long-running,
//! concurrent prediction service: a dependency-free HTTP/1.1 server on
//! `std::net` with a fixed worker-thread pool, JSON endpoints, and a
//! closed-loop load generator (`loadgen`) for measuring it.
//!
//! ## Endpoints
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/predict` | POST | classify one `row` or a batch of `rows` |
//! | `/sample` | POST | GBABS borderline-sample an uploaded CSV |
//! | `/model` | GET | cover stats of a named model (`?name=`) |
//! | `/models` | GET | list tenants with residency state, bytes, cache counters |
//! | `/models/{name}` | POST | **hot-reload** a model from RdGbgModel JSON (persisted when a store is attached) |
//! | `/models/{name}` | DELETE | remove a tenant from memory, catalog, and disk |
//! | `/healthz` | GET | liveness + model count + build info (version, kernel, uptime) |
//! | `/readyz` | GET | readiness: 200 while serving, 503 once draining; boot-scan verdict; build info |
//! | `/metrics` | GET | counters, latency histograms (p50/p90/p99), registry cache stats, per-code and **per-tenant** breakdowns; `?format=prometheus` for text exposition |
//! | `/debug/requests` | GET | bounded ring of the N slowest and most recent errored requests, with per-stage timings |
//!
//! ## One request path
//!
//! `gbabs serve` ([`server`]) and `gbabs router` ([`router`]) run one
//! shell (`service.rs`): accept loop and admission gate, worker pool,
//! keep-alive loop, access log, `/debug/requests`, `/metrics`, and the
//! 405/404 answers. Each supplies only its routes, its error counting,
//! its metric samples, and one extra thread. Every `/metrics` family is
//! declared once in [`metrics`]; both formats render from it.
//!
//! ## Observability
//!
//! Every request carries a **request id** (client-supplied `X-Request-Id`
//! or server-generated), echoed on every response — including errors and
//! shed 503s — and stamped into JSON bodies. Handlers record typed stage
//! spans (`predict`, `store_io`, `serialize`, `forward`, `ingest`) on a
//! per-request [`gb_obs::RequestCtx`]; when the server
//! runs with an access log ([`server::ServeConfig::access_log`]), each
//! completed request is rendered as one JSON line and handed to a
//! dedicated writer thread, so the hot path never blocks on file I/O and
//! concurrent lines cannot interleave. The same records feed the
//! [`gb_obs::DebugRing`] behind `GET /debug/requests`. See
//! `docs/SERVING.md` for the access-log schema and Prometheus scrape
//! config.
//!
//! ## Prediction
//!
//! `/predict` runs on the worker thread that read the request: one
//! [`gbabs::GbKnn::predict_batch`] call over the request's own rows, with
//! no queue or hand-off in between. A panicking predict is contained to
//! its request (500 `internal`); the worker goes on serving. Coalescing
//! concurrent requests into shared predict calls measured slower than
//! this at every concurrency tried (`BENCH_SERVE.json` entry 7).
//!
//! ## Hot reload
//!
//! The [`registry::ModelRegistry`] maps names to `Arc<ServingModel>`.
//! `POST /models/{name}` builds the new predictor **off to the side**
//! (JSON parse + GB-kNN construction happen before the registry lock is
//! taken) and then swaps the `Arc` in one pointer store. Requests that
//! already resolved the old `Arc` finish against the old model; new
//! requests see the new one; nothing blocks on the reload.
//!
//! ## Persistence and the memory budget
//!
//! With a [`store::ModelStore`] attached (`gbabs serve --model-dir`),
//! every accepted model is also written to disk — atomic
//! write-then-rename with an fsync'd, checksummed file per tenant — and a
//! restart repopulates the catalog lazily: tenants come back **cold**
//! (known, not loaded) and the first request against one transparently
//! rebuilds the predictor from disk. An optional byte budget
//! (`--model-mem-budget`) bounds resident memory: least-recently-used
//! persisted tenants are evicted back to cold state, and cold reloads are
//! single-flight (concurrent requests coalesce onto one disk load). See
//! [`store`] and [`registry`] for the contracts.
//!
//! ## Load shedding
//!
//! The bounded admission gate returns `503` instead of queuing
//! unboundedly: the accept loop sheds whole connections once the worker
//! hand-off queue reaches `backlog`. Shed responses carry a `Retry-After`
//! header, `"retryable": true` in the body, and the client's
//! `X-Request-Id` (a bounded peek reads the request head first), on the
//! server and the router alike.
//!
//! ## Resilience
//!
//! Every request runs under a **deadline** ([`deadline::Deadline`],
//! default from `ServeConfig::request_timeout`, tightenable per request
//! with `X-Deadline-Ms`): socket reads and writes, cold reloads, and the
//! start of predict all check the same budget, so a slow-loris client gets
//! a `408` and work whose budget is spent is dropped with `504` instead of
//! computed. Non-200 responses follow a structured taxonomy
//! ([`errors::ServeError`]) with machine-readable codes and a
//! retryable/permanent classification; [`client::RetryingClient`]
//! implements the matching client side (capped exponential backoff with
//! decorrelated jitter, honoring `Retry-After`). The model store carries a
//! deterministic fault-injection seam ([`store::FaultPolicy`], feature
//! `fault-inject`) that the crash-recovery torture tests drive.
//!
//! ## Sharding
//!
//! One server process is one **shard**. The [`router`] module scales the
//! tier horizontally: a `gbabs router` front end consistent-hashes tenant
//! names over N shared-nothing gb-serve backends ([`router::HashRing`]),
//! health-checks them via `/readyz`, fails over along the ring on
//! transport errors, and replicates `POST /models/{name}` publishes to
//! every healthy shard so failover never 404s. Request ids and deadlines
//! propagate across the hop. See `docs/CLUSTER.md` for the operator's
//! guide.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod deadline;
pub mod errors;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod server;
mod service;
pub mod store;

pub use client::{ClientResponse, HttpClient, RetryPolicy, RetryingClient};
pub use deadline::Deadline;
pub use errors::{ErrorCode, ServeError};
pub use metrics::{LatencyHistogram, TenantRegistry, TenantStats};
pub use registry::{
    LoadOptions, ModelRegistry, ModelStats, PublishError, ServingModel, MAX_CLASSES,
};
pub use router::{HashRing, Router, RouterConfig, RouterHandle};
pub use server::{ServeConfig, Server, ServerHandle, SERVER_VERSION};
#[cfg(feature = "fault-inject")]
pub use store::FaultPolicy;
pub use store::{ModelStore, ScanReport};
