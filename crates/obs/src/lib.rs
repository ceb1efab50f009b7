//! # gb-obs — structured observability for the GBABS pipeline
//!
//! A dependency-free (std-only) observability layer shared by the serving
//! tier and the granulation core. Four pieces:
//!
//! * [`span`] — per-request context ([`RequestCtx`]): a generated or
//!   client-propagated request id plus typed stage timers
//!   ([`Stage`]: `predict`, `store_io`, `serialize`, `forward`,
//!   `ingest`). A finished request collapses into a
//!   [`RequestRecord`] — the unit both the access log and the debug
//!   ring consume.
//! * [`log`] — [`AccessLog`]: a JSONL sink (file or stderr). Producers
//!   render one complete line and hand it over an mpsc channel to a
//!   single writer thread, so concurrent requests can never tear or
//!   interleave lines — serialization is by construction, not by lock.
//! * [`ring`] — [`DebugRing`]: a bounded in-memory ring keeping the N
//!   slowest and the N most recent errored requests, powering
//!   `GET /debug/requests`.
//! * [`prom`] — [`PromText`]: a Prometheus text-exposition builder with
//!   per-series duplicate detection, used by
//!   `GET /metrics?format=prometheus`.
//! * [`progress`] — [`ProgressEvent`]: build-side per-iteration progress
//!   emitted by RD-GBG / GBABS (`gbabs sample --progress`, `/sample`).
//!
//! The crate deliberately has **no dependencies** — not even the vendored
//! serde — because it sits below both `gbabs` (core) and `gb-serve` in the
//! crate graph. JSON is produced by the tiny escaping builder in [`json`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod log;
pub mod progress;
pub mod prom;
pub mod ring;
pub mod span;
pub mod stats;

pub use json::JsonObj;
pub use log::AccessLog;
pub use progress::{ProgressEvent, ProgressPhase};
pub use prom::PromText;
pub use ring::DebugRing;
pub use span::{gen_request_id, RequestCtx, RequestRecord, Stage, N_STAGES};
pub use stats::percentile_sorted_us;
