//! `gbabs serve`: the model server's routes, error counting and metrics.
//!
//! The accept loop, admission gate, worker pool and connection loop are
//! the shared shell in `service.rs`. `/predict` runs on the worker
//! that read the request, so a request never waits on another thread.

use crate::errors::{ErrorCode, ServeError};
use crate::http::{Request, Response};
use crate::metrics::{self as m, Exposition, Metrics, Reading, TenantRegistry, TenantStats};
use crate::registry::{
    CreateOptions, IngestError, LoadOptions, ModelRegistry, PublishError, ServingModel,
    VersionInfo, MAX_CLASSES,
};
use crate::service::{
    obj, render, Background, Bound, Limits, Reply, Route, Running, Service, Shell,
};
use gb_dataset::index::GranulationBackend;
use gb_obs::{RequestCtx as ObsCtx, Stage};
use gbabs::{DistanceRule, ProgressEvent};
use serde::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server build version, reported by `/healthz`, `/readyz`, and
/// `/metrics` so fleet tooling can detect version and kernel-tier drift.
pub const SERVER_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (= max concurrently served connections).
    pub workers: usize,
    /// Admission gate: connections allowed to wait for a worker before
    /// the accept loop sheds with 503.
    pub backlog: usize,
    /// Per-connection idle read timeout (keep-alive reaper).
    pub read_timeout: Duration,
    /// Per-request time budget, armed when the first byte of a request
    /// arrives and enforced on socket reads/writes, before cold reloads,
    /// and before predict. A slow client is rejected with 408, work whose
    /// budget is spent before it starts is dropped with 504. Clients may
    /// tighten (never extend) the budget per request with an
    /// `X-Deadline-Ms` header. `Duration::ZERO` disables deadline
    /// enforcement.
    pub request_timeout: Duration,
    /// Max accepted request body size.
    pub max_body_bytes: usize,
    /// JSONL access-log target: a file path, `"stderr"`/`"-"` for standard
    /// error, or `None` (default) to disable access logging. One line per
    /// finished request (id, tenant, endpoint, status, error code, rows,
    /// per-stage µs, deadline remaining).
    pub access_log: Option<String>,
    /// Warm-ahead at boot: rebuild this many of the most-recently-written
    /// cold tenants in a background thread once the server starts, so
    /// first requests after a restart hit resident predictors. `0`
    /// (default) disables preloading.
    pub preload: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            backlog: 64,
            read_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(10),
            max_body_bytes: 64 << 20,
            access_log: None,
            preload: 0,
        }
    }
}

/// Shared state every worker routes against.
struct ServerCtx {
    registry: Arc<ModelRegistry>,
    metrics: Metrics,
    /// Per-tenant counters/histograms (entries minted only on model
    /// resolution, never by junk names).
    tenants: TenantRegistry,
    shell: Shell,
    preload: usize,
}

/// A bound (not yet serving) server.
pub struct Server {
    inner: Bound<ServerCtx>,
}

/// Handle to a running server; dropping it does **not** stop the server —
/// call [`ServerHandle::stop`].
pub struct ServerHandle {
    inner: Running<ServerCtx>,
}

impl Server {
    /// Binds the listener and assembles the shared state.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(config: ServeConfig, registry: Arc<ModelRegistry>) -> std::io::Result<Server> {
        // A typo'd GB_SIMD tier must stop the boot with a message naming
        // the valid tiers, not silently auto-detect: replicas that
        // disagree on the kernel tier would still agree on results
        // (contract v2), but the operator asked for something specific.
        gb_dataset::validate_simd_env()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let limits = Limits {
            workers: config.workers,
            backlog: config.backlog,
            read_timeout: config.read_timeout,
            request_timeout: config.request_timeout,
            max_body_bytes: config.max_body_bytes,
        };
        let ctx = ServerCtx {
            registry,
            metrics: Metrics::default(),
            tenants: TenantRegistry::default(),
            shell: Shell::new(limits, config.access_log.as_deref())?,
            preload: config.preload,
        };
        Ok(Server {
            inner: Bound::bind(&config.addr, ctx)?,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Spawns the accept loop and worker pool and returns immediately.
    ///
    /// # Errors
    /// Propagates address/thread-spawn failures.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            inner: self.inner.start()?,
        })
    }
}

impl ServerHandle {
    /// The serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Blocks the current thread for the server's lifetime (until another
    /// thread triggers shutdown or the process is killed) — the foreground
    /// mode `gbabs serve` runs in.
    pub fn wait(self) {
        self.inner.wait();
    }

    /// Stops accepting, drains the workers, joins every thread, and
    /// flushes the access log.
    pub fn stop(self) {
        self.inner.stop();
    }
}

impl Service for ServerCtx {
    const NAME: &'static str = "server";
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("GET", "/healthz", healthz_endpoint),
        Route::new("GET", "/readyz", readyz_endpoint),
        Route::new("GET", "/models", models_endpoint),
        Route::new("GET", "/model", model_endpoint),
        Route::new("POST", "/predict", predict_endpoint),
        Route::new("POST", "/sample", sample_endpoint),
        Route::new("POST", "/models/*/rows", ingest_endpoint),
        Route::new("POST", "/models/*/rollback", rollback_endpoint),
        Route::new("POST", "/models/*", reload_endpoint),
        Route::new("DELETE", "/models/*", delete_endpoint),
        Route::new("GET", "/models/*", version_endpoint),
    ];
    const FAMILIES: &'static [&'static m::Family] = m::SERVER_FAMILIES;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    /// Error paths never mint tenant entries: only an already-resolved
    /// tenant is attributed.
    fn count_error(&self, tenant: Option<&str>, code: ErrorCode) {
        self.metrics.errors.record(code);
        if let Some(stats) = tenant.and_then(|t| self.tenants.get(t)) {
            stats.errors.record(code);
        }
    }

    fn observe(&self, x: &mut Exposition) {
        let metrics = &self.metrics;
        let contract = gb_dataset::CONTRACT_VERSION.to_string();
        let kernel = gb_dataset::active_kernel().name();
        x.add(&m::BUILD_INFO, &[SERVER_VERSION, kernel, &contract], 1.0);
        x.add(&m::UPTIME, &[], self.shell.uptime_s());
        for (endpoint, counter) in [
            ("predict", &metrics.predict_requests),
            ("sample", &metrics.sample_requests),
            ("model", &metrics.model_requests),
            ("healthz", &metrics.health_requests),
            ("reload", &metrics.reloads),
            ("delete", &metrics.deletes),
            ("append", &metrics.appends),
            ("rollback", &metrics.rollbacks),
        ] {
            x.add(&m::REQUESTS, &[endpoint], counter);
        }
        x.add(&m::PREDICT_ROWS, &[], &metrics.predict_rows);
        x.add(&m::APPEND_ROWS, &[], &metrics.append_rows);
        let errors = &metrics.errors;
        let total = |keep: fn(u16) -> bool| {
            let codes = ErrorCode::ALL.into_iter().filter(|c| keep(c.status()));
            codes.map(|c| errors.get(c)).sum::<u64>() as f64
        };
        x.add(&m::CLIENT_ERRORS, &[], total(|s| s < 500));
        x.add(&m::SERVER_ERRORS, &[], total(|s| s >= 500 && s != 503));
        x.add(&m::SHED, &[], total(|s| s == 503));
        for code in ErrorCode::ALL {
            x.add(&m::ERRORS, &[code.as_str()], errors.get(code) as f64);
        }
        let snap = self.registry.snapshot();
        let r = &self.registry.stats;
        x.add(&m::RESIDENT_MODELS, &[], snap.resident as f64);
        x.add(&m::COLD_MODELS, &[], snap.cold as f64);
        x.add(&m::RESIDENT_BYTES, &[], snap.resident_bytes as f64);
        let budget = snap.budget_bytes.map(|b| Reading::Num(b as f64));
        x.add(&m::BUDGET_BYTES, &[], budget.unwrap_or(Reading::Absent));
        x.add(&m::HITS, &[], &r.hits);
        x.add(&m::COLD_RELOADS, &[], &r.cold_reloads);
        x.add(&m::EVICTIONS, &[], &r.evictions);
        x.add(&m::RELOAD_LATENCY, &[], &r.reload_latency);
        x.add(&m::PREDICT_LATENCY, &[], &metrics.predict_latency);
        let tenants = self.tenants.snapshot();
        let counters: [(&m::Family, TenantCounter); 6] = [
            (&m::TENANT_REQUESTS, |t| &t.requests),
            (&m::TENANT_ROWS, |t| &t.rows),
            (&m::TENANT_RELOADS, |t| &t.reloads),
            (&m::TENANT_APPENDS, |t| &t.appends),
            (&m::TENANT_APPEND_ROWS, |t| &t.append_rows),
            (&m::TENANT_ROLLBACKS, |t| &t.rollbacks),
        ];
        for (family, counter) in counters {
            for (name, stats) in &tenants {
                x.add(family, &[name], counter(stats));
            }
        }
        for (name, stats) in &tenants {
            for code in ErrorCode::ALL {
                x.add(
                    &m::TENANT_ERRORS,
                    &[name, code.as_str()],
                    stats.errors.get(code) as f64,
                );
            }
        }
        for (name, stats) in &tenants {
            x.add(&m::TENANT_PREDICT_LATENCY, &[name], &stats.predict_latency);
        }
    }

    fn background(&self) -> Option<Background<Self>> {
        (self.preload > 0).then_some(("preload", preload))
    }
}

/// Reads one per-tenant counter.
type TenantCounter = fn(&TenantStats) -> &AtomicU64;

/// Warm-ahead, off the request path: the listener is already accepting,
/// cold tenants stay servable throughout (a concurrent request simply
/// coalesces onto the same single-flight reload), and the thread exits
/// when done.
fn preload(ctx: &ServerCtx) {
    let warmed = ctx.registry.preload_recent(ctx.preload);
    if warmed > 0 {
        eprintln!("gb-serve: preloaded {warmed} tenant(s)");
    }
}

/// Build-info fields shared by `/healthz` and `/readyz`: server version,
/// active SIMD tier, and the distance-kernel contract version — fleet
/// tooling uses the pair (kernel, contract) to detect tier drift across
/// replicas before it becomes result drift.
fn build_info_fields() -> Vec<(&'static str, Value)> {
    vec![
        ("version", Value::Str(SERVER_VERSION.into())),
        (
            "kernel",
            Value::Str(gb_dataset::active_kernel().name().into()),
        ),
        (
            "kernel_contract",
            Value::Num(f64::from(gb_dataset::CONTRACT_VERSION)),
        ),
    ]
}

/// `GET /healthz`: liveness, model count and build info.
fn healthz_endpoint(ctx: &ServerCtx, _: &Request, _: &mut ObsCtx) -> Reply {
    ctx.metrics.health_requests.fetch_add(1, Ordering::Relaxed);
    let mut fields = vec![
        ("status", Value::Str("ok".into())),
        ("models", Value::Num(ctx.registry.len() as f64)),
        ("uptime_s", Value::Num(ctx.shell.uptime_s())),
    ];
    fields.extend(build_info_fields());
    Ok(Response::json(200, render(&obj(fields))))
}

/// `GET /readyz`: readiness (vs `/healthz` liveness). Reports 200 only
/// while the server is accepting and routing work; flips to 503 the moment
/// shutdown begins so a router can drain this backend. The body carries
/// the boot-scan verdict (`boot_quarantined`) so an operator can tell a
/// clean boot from one that sidelined corrupt tenants.
fn readyz_endpoint(ctx: &ServerCtx, _: &Request, _: &mut ObsCtx) -> Reply {
    ctx.metrics.health_requests.fetch_add(1, Ordering::Relaxed);
    let draining = ctx.shell.stopping();
    let mut fields = vec![
        ("ready", Value::Bool(!draining)),
        ("draining", Value::Bool(draining)),
        ("models", Value::Num(ctx.registry.len() as f64)),
        (
            "boot_quarantined",
            Value::Num(ctx.registry.boot_quarantined() as f64),
        ),
        ("uptime_s", Value::Num(ctx.shell.uptime_s())),
    ];
    fields.extend(build_info_fields());
    let status = if draining { 503 } else { 200 };
    Ok(Response::json(status, render(&obj(fields))))
}

/// `GET /models`: every tenant with its residency state, plus the cache
/// totals and counters an operator needs to size `--model-mem-budget`.
fn models_endpoint(ctx: &ServerCtx, _: &Request, _: &mut ObsCtx) -> Reply {
    ctx.metrics.model_requests.fetch_add(1, Ordering::Relaxed);
    let registry = &ctx.registry;
    let snap = registry.snapshot();
    let stats = &registry.stats;
    let models = registry
        .entries()
        .into_iter()
        .map(|e| {
            obj(vec![
                ("name", Value::Str(e.name)),
                (
                    "state",
                    Value::Str(if e.resident { "resident" } else { "cold" }.into()),
                ),
                ("bytes", Value::Num(e.bytes as f64)),
                (
                    "version",
                    e.version.map_or(Value::Null, |v| Value::Num(v as f64)),
                ),
            ])
        })
        .collect::<Vec<_>>();
    let count = |c: &AtomicU64| Value::Num(c.load(Ordering::Relaxed) as f64);
    Ok(Response::json(
        200,
        render(&obj(vec![
            ("models", Value::Arr(models)),
            ("resident", Value::Num(snap.resident as f64)),
            ("cold", Value::Num(snap.cold as f64)),
            ("resident_bytes", Value::Num(snap.resident_bytes as f64)),
            (
                "budget_bytes",
                snap.budget_bytes
                    .map_or(Value::Null, |b| Value::Num(b as f64)),
            ),
            ("hits", count(&stats.hits)),
            ("cold_reloads", count(&stats.cold_reloads)),
            ("evictions", count(&stats.evictions)),
        ])),
    ))
}

/// `DELETE /models/{name}`: drops the tenant from memory, the catalog, and
/// the store file. In-flight requests holding the model finish unaffected.
fn delete_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = model_name(&req.path, "")?;
    let removed = obs.time(Stage::StoreIo, || ctx.registry.remove(name));
    if !removed.map_err(ServeError::store_io)? {
        return Err(no_model(name));
    }
    ctx.metrics.deletes.fetch_add(1, Ordering::Relaxed);
    obs.tenant = Some(name.to_string());
    let body = obj(vec![("deleted", Value::Str(name.to_string()))]);
    Ok(Response::json(200, render(&body)))
}

fn model_stats_value(model: &ServingModel) -> Value {
    let s = &model.stats;
    obj(vec![
        ("name", Value::Str(model.name.clone())),
        ("version", Value::Num(model.version as f64)),
        ("n_features", Value::Num(model.n_features as f64)),
        ("n_classes", Value::Num(model.n_classes as f64)),
        ("k", Value::Num(model.predictor.k() as f64)),
        ("metric", Value::Str(model.predictor.metric().name().into())),
        ("backend", Value::Str(model.backend.to_string())),
        ("n_balls", Value::Num(s.n_balls as f64)),
        ("n_singletons", Value::Num(s.n_singletons as f64)),
        ("radius_min", Value::Num(s.radius_min)),
        ("radius_mean", Value::Num(s.radius_mean)),
        ("radius_max", Value::Num(s.radius_max)),
        ("noise_rows", Value::Num(s.noise_rows as f64)),
        ("iterations", Value::Num(s.iterations as f64)),
    ])
}

/// The 404 for a tenant nobody knows.
fn no_model(name: &str) -> ServeError {
    ServeError::not_found(format!("no model named '{name}'"))
}

/// Resolves tenant `name`, rebuilding a cold (evicted or persisted but not
/// yet loaded) one from the model store — the `store_io` span (warm hits
/// cost ~ns, cold reloads dominate tails).
fn acquire(ctx: &ServerCtx, obs: &mut ObsCtx, name: &str) -> Result<Arc<ServingModel>, ServeError> {
    let model = obs.time(Stage::StoreIo, || ctx.registry.acquire(name));
    let model = model
        .map_err(ServeError::store_io)?
        .ok_or_else(|| no_model(name))?;
    obs.tenant = Some(model.name.clone());
    Ok(model)
}

fn model_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    ctx.metrics.model_requests.fetch_add(1, Ordering::Relaxed);
    req.deadline.check("model lookup")?;
    let model = acquire(ctx, obs, req.query_param("name").unwrap_or("default"))?;
    Ok(Response::json(200, render(&model_stats_value(&model))))
}

/// The JSON body of `req`; a 400 when it is not UTF-8 JSON.
fn parse_body(req: &Request) -> Result<Value, ServeError> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| ServeError::bad_request("body is not UTF-8"))?;
    serde_json::from_str::<Value>(text)
        .map_err(|e| ServeError::bad_request(format!("bad JSON: {e}")))
}

/// Extracts the query rows from a predict body: either `"rows": [[..]..]`
/// or `"row": [..]`. Validates width and finiteness.
fn extract_rows(body: &Value, n_features: usize) -> Result<Vec<f64>, String> {
    let rows = match (body.get("rows"), body.get("row")) {
        (Some(Value::Arr(rows)), None) => rows.as_slice(),
        (None, Some(row @ Value::Arr(_))) => std::slice::from_ref(row),
        (Some(_), Some(_)) => return Err("provide either 'row' or 'rows', not both".into()),
        _ => return Err("missing 'row' (array) or 'rows' (array of arrays)".into()),
    };
    if rows.is_empty() {
        return Err("'rows' is empty".into());
    }
    flatten_rows(rows, n_features, "model expects")
}

/// Flattens `rows`, each an array of `width` finite numbers; `expected`
/// says where the width comes from in the error.
fn flatten_rows(rows: &[Value], width: usize, expected: &str) -> Result<Vec<f64>, String> {
    let mut flat = Vec::with_capacity(rows.len() * width);
    for (i, row) in rows.iter().enumerate() {
        let Value::Arr(values) = row else {
            return Err(format!("row {i} is not an array"));
        };
        if values.len() != width {
            return Err(format!(
                "row {i} has {} values, {expected} {width}",
                values.len()
            ));
        }
        for v in values {
            let Value::Num(x) = v else {
                return Err(format!("row {i} contains a non-numeric value"));
            };
            if !x.is_finite() {
                return Err(format!("row {i} contains a non-finite value"));
            }
            flat.push(*x);
        }
    }
    Ok(flat)
}

fn predict_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let start = Instant::now();
    let body = parse_body(req)?;
    let name = match body.get("model") {
        Some(Value::Str(s)) => s.as_str(),
        None => "default",
        Some(_) => return Err(ServeError::bad_request("'model' must be a string")),
    };
    // Deadline gate before the expensive part: a request whose budget
    // lapsed during read must not trigger a cold reload it can no longer
    // use the result of.
    req.deadline.check("model acquisition")?;
    // Tenant resolved: from here on, counters attribute to it.
    let model = acquire(ctx, obs, name)?;
    let tenant = ctx.tenants.touch(&model.name);
    let rows = extract_rows(&body, model.n_features).map_err(ServeError::bad_request)?;
    let n_rows = rows.len() / model.n_features;
    obs.rows = n_rows as u64;
    // Second deadline gate: a cold reload may have spent the budget.
    req.deadline.check("predict")?;
    // Contain a panicking predict (e.g. a cover whose geometry slipped
    // past validation): this request fails with a 500 naming the model,
    // and the worker goes on serving its connection.
    let predicted = obs.time(Stage::Predict, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predictor.predict_batch(&rows, model.n_features)
        }))
    });
    let predictions = predicted.map_err(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "prediction panicked".into());
        ServeError::internal(format!("prediction failed for '{}': {what}", model.name))
    })?;
    ctx.metrics.predict_requests.fetch_add(1, Ordering::Relaxed);
    ctx.metrics
        .predict_rows
        .fetch_add(n_rows as u64, Ordering::Relaxed);
    let elapsed = start.elapsed();
    ctx.metrics.predict_latency.observe(elapsed);
    tenant.requests.fetch_add(1, Ordering::Relaxed);
    tenant.rows.fetch_add(n_rows as u64, Ordering::Relaxed);
    tenant.predict_latency.observe(elapsed);
    let request_id = obs.id.clone();
    Ok(obs.time(Stage::Serialize, || {
        let preds = predictions
            .into_iter()
            .map(|p| Value::Num(f64::from(p)))
            .collect::<Vec<_>>();
        Response::json(
            200,
            render(&obj(vec![
                ("model", Value::Str(model.name.clone())),
                ("version", Value::Num(model.version as f64)),
                ("request_id", Value::Str(request_id)),
                ("predictions", Value::Arr(preds)),
            ])),
        )
    }))
}

/// Cap on the `progress` array in `/sample` responses: past this many
/// iterations the event list is stride-downsampled (keeping the final
/// event) so huge datasets cannot bloat the response body.
const MAX_PROGRESS_EVENTS: usize = 64;

/// Stride-downsamples `events` to at most [`MAX_PROGRESS_EVENTS`],
/// always retaining the last event (the terminal Borderline summary).
fn downsample_progress(events: &[ProgressEvent]) -> Vec<&ProgressEvent> {
    if events.len() <= MAX_PROGRESS_EVENTS {
        return events.iter().collect();
    }
    let stride = events.len().div_ceil(MAX_PROGRESS_EVENTS);
    let mut kept: Vec<&ProgressEvent> = events.iter().step_by(stride).collect();
    if let Some(last) = events.last() {
        if !std::ptr::eq(*kept.last().expect("non-empty"), last) {
            kept.push(last);
        }
    }
    kept
}

fn sample_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let body = parse_body(req)?;
    let (rho, seed) = sample_params(&body).map_err(ServeError::bad_request)?;
    let Some(Value::Str(csv)) = body.get("csv") else {
        return Err(ServeError::bad_request(
            "missing 'csv' (string: headered CSV, label last)",
        ));
    };
    let data = gb_dataset::io::read_csv_str(csv, &gb_dataset::io::CsvOptions::default())
        .map_err(|e| ServeError::bad_request(format!("bad CSV: {e}")))?;
    if data.n_classes() < 2 {
        return Err(ServeError::bad_request(
            "dataset has a single class; borderline sampling needs at least 2",
        ));
    }
    obs.rows = data.n_samples() as u64;
    // The granulation loop emits one event per RD-GBG iteration plus a
    // terminal Borderline summary; the sink only observes, so the sampled
    // output is bit-identical with or without it.
    let mut events: Vec<ProgressEvent> = Vec::new();
    let mut sink = |e: &ProgressEvent| events.push(e.clone());
    let config = gbabs::RdGbgConfig {
        density_tolerance: rho,
        seed,
        backend: GranulationBackend::Auto,
        ..Default::default()
    };
    let out = obs.time(Stage::Predict, || {
        gbabs::gbabs_with_progress(&data, &config, Some(&mut sink))
    });
    ctx.metrics.sample_requests.fetch_add(1, Ordering::Relaxed);
    let request_id = obs.id.clone();
    Ok(obs.time(Stage::Serialize, || {
        let n_out = out.sampled_rows.len();
        let kept = out
            .sampled_rows
            .iter()
            .map(|&r| Value::Num(r as f64))
            .collect::<Vec<_>>();
        let progress = downsample_progress(&events)
            .into_iter()
            .map(progress_event_value)
            .collect::<Vec<_>>();
        Response::json(
            200,
            render(&obj(vec![
                ("n_in", Value::Num(data.n_samples() as f64)),
                ("n_out", Value::Num(n_out as f64)),
                (
                    "ratio",
                    Value::Num(n_out as f64 / data.n_samples().max(1) as f64),
                ),
                ("request_id", Value::Str(request_id)),
                (
                    "iterations",
                    Value::Num(events.len().saturating_sub(1) as f64),
                ),
                ("kept_rows", Value::Arr(kept)),
                ("progress", Value::Arr(progress)),
            ])),
        )
    }))
}

/// Renders one [`ProgressEvent`] for a `/sample` response by parsing
/// [`ProgressEvent::to_json`], the rendering `gbabs sample --progress`
/// prints.
fn progress_event_value(event: &ProgressEvent) -> Value {
    serde_json::from_str(&event.to_json()).unwrap_or(Value::Null)
}

fn reload_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = model_name(&req.path, "")?;
    let body = parse_body(req)?;
    reject_unknown_keys(&body, &RELOAD_KEYS, "POST /models/{name}")
        .map_err(ServeError::bad_request)?;
    let Some(model_value) = body.get("model") else {
        return Err(ServeError::bad_request(
            "missing 'model' (RdGbgModel JSON object)",
        ));
    };
    let options = load_options(&body).map_err(ServeError::bad_request)?;
    // `publish_value` persists to the model store (when one is attached)
    // before the swap, so an accepted reload survives a restart — the
    // store write is the `store_io` span.
    let published = obs.time(Stage::StoreIo, || {
        ctx.registry.publish_value(name, model_value, &options)
    });
    let model = published.map_err(|e| match e {
        PublishError::Rejected(e) => ServeError::bad_request(e),
        e @ PublishError::Store(_) => ServeError::store_io(e.to_string()),
    })?;
    ctx.metrics.reloads.fetch_add(1, Ordering::Relaxed);
    obs.tenant = Some(model.name.clone());
    ctx.tenants
        .touch(&model.name)
        .reloads
        .fetch_add(1, Ordering::Relaxed);
    Ok(Response::json(200, render(&model_stats_value(&model))))
}

/// Maps an [`IngestError`] onto the closed error taxonomy: client-caused
/// rejections are 400s, unknown tenants/versions 404s, store failures the
/// same 503 `store_io` code cold reloads use.
fn ingest_error(e: IngestError) -> ServeError {
    match e {
        IngestError::Rejected(m) => ServeError::bad_request(m),
        IngestError::NotFound(m) => ServeError::not_found(m),
        IngestError::Store(m) => ServeError::store_io(m),
    }
}

/// Extracts the tenant name from `/models/{name}{action}` (`action` is
/// `""`, `/rows` or `/rollback`), rejecting empty and multi-segment names.
fn model_name<'a>(path: &'a str, action: &str) -> Result<&'a str, ServeError> {
    let name = path
        .trim_start_matches("/models/")
        .strip_suffix(action)
        .unwrap_or("");
    if name.is_empty() || name.contains('/') {
        return Err(ServeError::bad_request(
            "model name must be a single path segment",
        ));
    }
    Ok(name)
}

/// Parses a labelled batch from an ingest body: `"rows"` (array of equal
/// width numeric arrays) and `"labels"` (array of non-negative integers,
/// one per row). Returns the flattened features, labels, and row width.
fn extract_labelled_rows(body: &Value) -> Result<(Vec<f64>, Vec<u32>, usize), String> {
    let Some(Value::Arr(rows)) = body.get("rows") else {
        return Err("missing 'rows' (array of arrays)".into());
    };
    let Some(Value::Arr(labels)) = body.get("labels") else {
        return Err("missing 'labels' (array of non-negative integers)".into());
    };
    if rows.is_empty() {
        return Err("'rows' is empty".into());
    }
    if labels.len() != rows.len() {
        return Err(format!(
            "{} labels for {} rows; provide exactly one label per row",
            labels.len(),
            rows.len()
        ));
    }
    let Some(Value::Arr(first)) = rows.first() else {
        return Err("row 0 is not an array".into());
    };
    let n_features = first.len();
    if n_features == 0 {
        return Err("row 0 is empty; rows need at least one feature".into());
    }
    let flat = flatten_rows(rows, n_features, "row 0 has")?;
    let mut out = Vec::with_capacity(labels.len());
    for (i, label) in labels.iter().enumerate() {
        match label {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX) => {
                out.push(*n as u32);
            }
            _ => return Err(format!("label {i} is not a non-negative integer")),
        }
    }
    Ok((flat, out, n_features))
}

/// Every key an ingest body may carry.
const INGEST_KEYS: [&str; 6] = ["rows", "labels", "rho", "n_classes", "k", "rule"];
/// Every key a `POST /models/{name}` (hot reload) body may carry.
const RELOAD_KEYS: [&str; 3] = ["model", "k", "rule"];
/// Every key a `POST /models/{name}/rollback` body may carry.
const ROLLBACK_KEYS: [&str; 1] = ["version"];
/// Every key a `POST /sample` body may carry.
const SAMPLE_KEYS: [&str; 3] = ["csv", "rho", "seed"];

/// Rejects a body key outside `allowed`, naming the first one, so an
/// option the endpoint does not support (`"metric"`) or a misspelt one
/// (`"n_class"`) fails loudly instead of being ignored.
fn reject_unknown_keys(body: &Value, allowed: &[&str], endpoint: &str) -> Result<(), String> {
    if let Value::Obj(fields) = body {
        if let Some((key, _)) = fields
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
        {
            return Err(format!(
                "unknown key '{key}'; a {endpoint} body takes only {}",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parses the creation parameters an ingest body may carry (`rho`,
/// `n_classes`, `k`, `rule`); they only apply when the batch creates the
/// tenant — appends to an existing maintained tenant keep its parameters.
/// Rejects keys outside [`INGEST_KEYS`], naming the first one.
fn extract_create_options(body: &Value) -> Result<CreateOptions, String> {
    reject_unknown_keys(body, &INGEST_KEYS, "/rows")?;
    let n_classes = integer(body, "n_classes", 2)?.map(|n| n as usize);
    // Refused here, before the sweep; the registry refuses it again for
    // every other path that builds a predictor.
    if n_classes.is_some_and(|n| n > MAX_CLASSES) {
        return Err(format!(
            "'n_classes' must be an integer from 2 to {MAX_CLASSES}"
        ));
    }
    let mut create = CreateOptions {
        load: load_options(body)?,
        n_classes,
        ..CreateOptions::default()
    };
    if let Some(rho) = integer(body, "rho", 2)? {
        create.rho = rho as usize;
    }
    Ok(create)
}

/// Parses `k` and `rule`, the predictor options of a hot reload and of a
/// `/rows` batch that creates its tenant.
fn load_options(body: &Value) -> Result<LoadOptions, String> {
    let mut options = LoadOptions::default();
    if let Some(k) = integer(body, "k", 1)? {
        options.k = k as usize;
    }
    match body.get("rule") {
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("surface") => {
            options.rule = DistanceRule::Surface;
        }
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("center") => {
            options.rule = DistanceRule::Center;
        }
        None => {}
        Some(_) => return Err("'rule' must be 'surface' or 'center'".into()),
    }
    Ok(options)
}

/// Parses `rho` (default 5) and `seed` (default 42) of a `/sample` body,
/// rejecting keys outside [`SAMPLE_KEYS`].
fn sample_params(body: &Value) -> Result<(usize, u64), String> {
    reject_unknown_keys(body, &SAMPLE_KEYS, "/sample")?;
    let rho = integer(body, "rho", 2)?.unwrap_or(5);
    let seed = integer(body, "seed", 0)?.unwrap_or(42);
    Ok((rho as usize, seed))
}

/// Integers above 2^53 are not exact in a JSON number (an f64), so no body
/// integer may exceed it.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// The integer `key` of `body`, at least `min` and at most 2^53, or `None`
/// when absent. A fraction, a value out of range or a non-number is an
/// error naming the key, never a silent cast.
fn integer(body: &Value, key: &str, min: u64) -> Result<Option<u64>, String> {
    match body.get(key) {
        None => Ok(None),
        Some(Value::Num(n)) if n.fract() == 0.0 && (min as f64..=MAX_EXACT_INTEGER).contains(n) => {
            Ok(Some(*n as u64))
        }
        Some(_) => Err(format!("'{key}' must be an integer from {min} to 2^53")),
    }
}

/// `POST /models/{name}/rows`: online maintenance. Appends labelled rows
/// to a maintained tenant (creating it on first contact), rebuilds its
/// canonical cover, persists a new immutable store version, and swaps the
/// rebuilt predictor in — all under the registry's publish lock, timed as
/// the `ingest` stage.
fn ingest_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = model_name(&req.path, "/rows")?;
    let body = parse_body(req)?;
    let (features, labels, n_features) =
        extract_labelled_rows(&body).map_err(ServeError::bad_request)?;
    let create = extract_create_options(&body).map_err(ServeError::bad_request)?;
    obs.rows = labels.len() as u64;
    // Same gate as predict: an expired request must not trigger a
    // re-granulation whose result it can no longer read.
    req.deadline.check("ingest")?;
    let receipt = obs.time(Stage::Ingest, || {
        ctx.registry
            .append_rows(name, &features, &labels, n_features, &create)
    });
    let receipt = receipt.map_err(ingest_error)?;
    ctx.metrics.appends.fetch_add(1, Ordering::Relaxed);
    ctx.metrics
        .append_rows
        .fetch_add(labels.len() as u64, Ordering::Relaxed);
    obs.tenant = Some(name.to_string());
    let tenant = ctx.tenants.touch(name);
    tenant.appends.fetch_add(1, Ordering::Relaxed);
    tenant
        .append_rows
        .fetch_add(labels.len() as u64, Ordering::Relaxed);
    let request_id = obs.id.clone();
    Ok(obs.time(Stage::Serialize, || {
        Response::json(
            200,
            render(&obj(vec![
                ("model", Value::Str(name.to_string())),
                ("created", Value::Bool(receipt.created)),
                ("appended", Value::Num(labels.len() as f64)),
                ("n_rows", Value::Num(receipt.n_rows as f64)),
                ("version", Value::Num(receipt.serving.version as f64)),
                ("store_version", Value::Num(receipt.store_version as f64)),
                ("n_balls", Value::Num(receipt.serving.stats.n_balls as f64)),
                ("request_id", Value::Str(request_id)),
            ])),
        )
    }))
}

/// `POST /models/{name}/rollback`: re-activates a retained version by
/// copying its content forward as a **new** head — the chain stays
/// append-only, so the rollback itself is auditable and revertible.
fn rollback_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = model_name(&req.path, "/rollback")?;
    let body = parse_body(req)?;
    reject_unknown_keys(&body, &ROLLBACK_KEYS, "/rollback").map_err(ServeError::bad_request)?;
    let version = integer(&body, "version", 0)
        .and_then(|v| v.ok_or_else(|| "missing 'version' (non-negative integer)".to_string()))
        .map_err(ServeError::bad_request)?;
    req.deadline.check("rollback")?;
    let receipt = obs.time(Stage::Ingest, || ctx.registry.rollback(name, version));
    let receipt = receipt.map_err(ingest_error)?;
    ctx.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
    obs.tenant = Some(name.to_string());
    ctx.tenants
        .touch(name)
        .rollbacks
        .fetch_add(1, Ordering::Relaxed);
    Ok(Response::json(
        200,
        render(&obj(vec![
            ("model", Value::Str(name.to_string())),
            ("rolled_back_to", Value::Num(receipt.rolled_back_to as f64)),
            ("store_version", Value::Num(receipt.store_version as f64)),
            ("version", Value::Num(receipt.serving.version as f64)),
            ("n_balls", Value::Num(receipt.serving.stats.n_balls as f64)),
        ])),
    ))
}

/// Renders one [`VersionInfo`] (`GET /models/{name}[?version=N]`).
fn version_info_value(info: &VersionInfo) -> Value {
    obj(vec![
        ("name", Value::Str(info.name.clone())),
        ("version", Value::Num(info.version as f64)),
        ("head", Value::Num(info.head as f64)),
        (
            "versions",
            Value::Arr(
                info.versions
                    .iter()
                    .map(|&v| Value::Num(v as f64))
                    .collect(),
            ),
        ),
        (
            "parent",
            info.parent
                .map_or(Value::Null, |p| Value::Str(format!("{p:016x}"))),
        ),
        ("n_balls", Value::Num(info.n_balls as f64)),
        (
            "n_rows",
            info.n_rows.map_or(Value::Null, |n| Value::Num(n as f64)),
        ),
        ("maintained", Value::Bool(info.maintained)),
        ("file_bytes", Value::Num(info.file_bytes as f64)),
    ])
}

/// `GET /models/{name}[?version=N]`: version-chain metadata for one
/// tenant — the head and retained versions, plus the pinned version's
/// cover/row counts when `?version=` asks for a specific link.
fn version_endpoint(ctx: &ServerCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = model_name(&req.path, "")?;
    ctx.metrics.model_requests.fetch_add(1, Ordering::Relaxed);
    let version = req
        .query_param("version")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| ServeError::bad_request("'version' must be a non-negative integer"))
        })
        .transpose()?;
    let info = obs.time(Stage::StoreIo, || ctx.registry.version_info(name, version));
    let info = info.map_err(ingest_error)?.ok_or_else(|| no_model(name))?;
    obs.tenant = Some(info.name.clone());
    Ok(Response::json(200, render(&version_info_value(&info))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use gb_dataset::catalog::DatasetId;
    use gbabs::{rd_gbg, GranularBall, RdGbgConfig, RdGbgModel};

    #[test]
    fn panicking_predict_fails_the_request_but_not_the_worker() {
        let registry = Arc::new(ModelRegistry::new());
        let data = DatasetId::S5.generate(0.05, 3);
        registry
            .publish(
                "default",
                &rd_gbg(&data, &RdGbgConfig::default()),
                &LoadOptions::default(),
            )
            .expect("load healthy model");
        // A poisoned model built by hand (the validating loaders reject
        // it): infinite centers with infinite radii make every surface
        // distance `inf − inf = NaN`, which panics the vote.
        let ball = || GranularBall {
            center: vec![f64::INFINITY, 0.0],
            radius: f64::INFINITY,
            label: 0,
            members: vec![0],
            center_row: None,
            purity: 1.0,
        };
        let poisoned = RdGbgModel {
            balls: vec![ball(), ball()],
            noise: vec![],
            orphan_count: 0,
            iterations: 1,
            metric: gb_dataset::Metric::SqEuclidean,
        };
        registry.load_unchecked("poisoned", &poisoned);
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = Server::bind(config, registry).unwrap().start().unwrap();
        let mut c = HttpClient::connect(handle.addr(), Duration::from_secs(20)).unwrap();
        let (status, body) = c
            .request(
                "POST",
                "/predict",
                Some("{\"model\":\"poisoned\",\"row\":[0.5,0.5]}"),
            )
            .unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"internal\""), "{body}");
        assert!(body.contains("poisoned"), "{body}");
        // The only worker survived: the same connection, and a fresh one
        // after it closes, are still served.
        let healthy = format!("{{\"row\":[{},{}]}}", data.row(0)[0], data.row(0)[1]);
        let (status, body) = c.request("POST", "/predict", Some(&healthy)).unwrap();
        assert_eq!(status, 200, "{body}");
        drop(c);
        let mut fresh = HttpClient::connect(handle.addr(), Duration::from_secs(20)).unwrap();
        let (status, body) = fresh.request("POST", "/predict", Some(&healthy)).unwrap();
        assert_eq!(status, 200, "{body}");
        handle.stop();
    }

    #[test]
    fn sample_progress_renders_the_same_fields_as_the_cli() {
        // `/sample` builds its progress array with `progress_event_value`;
        // `gbabs sample --progress` machine output is `to_json`. Both must
        // carry every field, the query counts included, in the same order.
        let events = [
            ProgressEvent::Granulate {
                iteration: 3,
                balls: 42,
                conflicts: 5,
                noise: 2,
                remaining: 100,
                knn_queries: 60,
                het_queries: 7,
                range_queries: 8,
                conflict_visits: 900,
                elapsed_us: 1500,
            },
            ProgressEvent::Borderline {
                balls: 42,
                borderline: 7,
                sampled: 350,
                elapsed_us: 9000,
            },
        ];
        for event in &events {
            let cli: Value = serde_json::from_str(&event.to_json()).unwrap();
            assert_eq!(progress_event_value(event), cli);
        }
    }
}
