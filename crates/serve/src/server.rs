//! The serving loop: listener, worker pool, routing, admission.
//!
//! Connections are accepted on a dedicated thread and handed to a **fixed
//! pool of worker threads** over a bounded queue; a worker owns its
//! connection until the peer closes (HTTP keep-alive), reading requests,
//! routing them, and writing JSON responses. When every worker is busy and
//! the hand-off queue is at `backlog` capacity, the accept thread sheds the
//! connection with an immediate `503` instead of queuing unboundedly — the
//! server's admission gate. `/predict` runs on the worker that read the
//! request, so a request never waits on another thread.

use crate::deadline::Deadline;
use crate::errors::{ErrorCode, ServeError};
use crate::http::{peek_head, read_request, HttpError, Response};
use crate::metrics::{LatencyHistogram, Metrics, TenantRegistry, LATENCY_BUCKETS};
use crate::registry::{
    CreateOptions, IngestError, LoadOptions, ModelRegistry, PublishError, ServingModel, VersionInfo,
};
use gb_dataset::index::GranulationBackend;
use gb_obs::{gen_request_id, AccessLog, DebugRing, PromText, RequestCtx as ObsCtx, Stage};
use gbabs::{DistanceRule, ProgressEvent};
use serde::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// Capacity of the `/debug/requests` ring: how many slowest and how
    /// many most-recent errored requests are retained in memory.
    pub debug_ring: usize,
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
            debug_ring: 64,
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
    /// JSONL access log, when `--access-log` is configured.
    access_log: Option<AccessLog>,
    /// Slowest/errored request ring behind `GET /debug/requests`.
    ring: DebugRing,
    /// Active bounded-peek shed threads (caps the thread cost of echoing
    /// request ids on shed 503s under a connection flood).
    shed_peeks: AtomicUsize,
    config: ServeConfig,
    started: Instant,
    stop: AtomicBool,
}

/// A bound (not yet serving) server.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
}

/// Handle to a running server; dropping it does **not** stop the server —
/// call [`ServerHandle::stop`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    threads: Vec<std::thread::JoinHandle<()>>,
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
        let listener = TcpListener::bind(&config.addr)?;
        let access_log = match &config.access_log {
            Some(target) => Some(AccessLog::open(target)?),
            None => None,
        };
        let ring = DebugRing::new(config.debug_ring.max(1));
        let ctx = Arc::new(ServerCtx {
            registry,
            metrics: Metrics::default(),
            tenants: TenantRegistry::default(),
            access_log,
            ring,
            shed_peeks: AtomicUsize::new(0),
            config,
            started: Instant::now(),
            stop: AtomicBool::new(false),
        });
        Ok(Server { listener, ctx })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the accept loop and worker pool and returns immediately.
    ///
    /// # Errors
    /// Propagates address/thread-spawn failures.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let ctx = Arc::clone(&self.ctx);
        let workers = ctx.config.workers.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let ctx = Arc::clone(&ctx);
            let rx = Arc::clone(&rx);
            let queued = Arc::clone(&queued);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gb-serve-worker-{i}"))
                    .spawn(move || loop {
                        let conn = rx.lock().expect("worker queue").recv();
                        match conn {
                            Ok(stream) => {
                                queued.fetch_sub(1, Ordering::SeqCst);
                                handle_connection(stream, &ctx);
                            }
                            Err(_) => return, // accept loop gone
                        }
                    })?,
            );
        }
        if ctx.config.preload > 0 {
            // Warm-ahead runs off the request path: the listener is
            // already accepting, cold tenants stay servable throughout
            // (a concurrent request simply coalesces onto the same
            // single-flight reload), and the thread exits when done.
            let preload_ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name("gb-serve-preload".into())
                    .spawn(move || {
                        let warmed = preload_ctx
                            .registry
                            .preload_recent(preload_ctx.config.preload);
                        if warmed > 0 {
                            eprintln!("gb-serve: preloaded {warmed} tenant(s)");
                        }
                    })?,
            );
        }
        let accept_ctx = Arc::clone(&ctx);
        let listener = self.listener;
        threads.push(
            std::thread::Builder::new()
                .name("gb-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if accept_ctx.stop.load(Ordering::SeqCst) {
                            return; // tx drops; workers drain and exit
                        }
                        let Ok(stream) = stream else { continue };
                        if queued.fetch_add(1, Ordering::SeqCst) >= accept_ctx.config.backlog {
                            queued.fetch_sub(1, Ordering::SeqCst);
                            accept_ctx.metrics.shed.fetch_add(1, Ordering::Relaxed);
                            shed_connection(stream, &accept_ctx);
                            continue;
                        }
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                })?,
        );
        Ok(ServerHandle { addr, ctx, threads })
    }
}

impl ServerHandle {
    /// The serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the current thread for the server's lifetime (until another
    /// thread triggers shutdown or the process is killed) — the foreground
    /// mode `gbabs serve` runs in.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn stop(self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
        // Drain buffered access-log lines before the process (possibly)
        // exits: every request served before stop() returns is on disk.
        if let Some(log) = &self.ctx.access_log {
            log.flush();
        }
    }
}

/// How many concurrent shed connections may hold a bounded-peek thread;
/// beyond this the 503 is written blind (no id echo) so a connection flood
/// cannot become a thread flood.
const MAX_SHED_PEEKS: usize = 32;

/// Budget for peeking a shed connection's request head (id echo).
const SHED_PEEK_BUDGET: Duration = Duration::from_millis(150);

/// Sheds a connection at the accept gate with a 503. When thread budget
/// allows, a short-lived detached thread peeks the request head first so
/// the 503 still echoes the client's `X-Request-Id` and the shed lands in
/// the access log with its real path; under a flood the response is
/// written blind from the accept thread (never blocking accept on a read).
fn shed_connection(stream: TcpStream, ctx: &Arc<ServerCtx>) {
    ctx.metrics.errors.record(ErrorCode::Overloaded);
    if ctx.shed_peeks.fetch_add(1, Ordering::SeqCst) < MAX_SHED_PEEKS {
        let ctx2 = Arc::clone(ctx);
        let spawned = std::thread::Builder::new()
            .name("gb-serve-shed".into())
            .spawn(move || {
                shed_with_peek(stream, &ctx2);
                ctx2.shed_peeks.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(_) => return,
            Err(_) => {
                // Spawn failed: the moved stream is gone with the closure.
                ctx.shed_peeks.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
    ctx.shed_peeks.fetch_sub(1, Ordering::SeqCst);
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = ServeError::overloaded("server overloaded; retry later")
        .to_response()
        .write_to(&mut stream, true);
    finish_request(ctx, shed_obs(None, None), 503, &Deadline::unbounded());
}

fn shed_obs(id: Option<String>, path: Option<String>) -> ObsCtx {
    let mut obs = ObsCtx::new(
        id.unwrap_or_else(gen_request_id),
        path.unwrap_or_else(|| "(shed)".into()),
    );
    obs.code = Some(ErrorCode::Overloaded.as_str());
    obs
}

/// Shed path with head peek: bounded read of the request line + headers to
/// recover the path and client request id, then the 503.
fn shed_with_peek(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = Deadline::after(SHED_PEEK_BUDGET);
    let (path, id) = {
        let mut reader = BufReader::new(&stream);
        peek_head(&mut reader, &deadline)
    };
    let mut obs = shed_obs(id, path);
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let t0 = Instant::now();
    let _ = ServeError::overloaded("server overloaded; retry later")
        .to_response_with_id(&obs.id)
        .write_to(&mut stream, true);
    obs.record(Stage::Serialize, t0.elapsed());
    finish_request(ctx, obs, 503, &Deadline::unbounded());
}

/// Collapses a finished request into its record, feeding the debug ring
/// and (when configured) the access log.
fn finish_request(ctx: &ServerCtx, obs: ObsCtx, status: u16, deadline: &Deadline) {
    let remaining_ms = deadline
        .remaining()
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let rec = obs.finish(status, remaining_ms);
    ctx.ring.insert(&rec);
    if let Some(log) = &ctx.access_log {
        log.log(rec.to_json());
    }
}

/// Idle-poll granularity: how quickly a worker parked on a keep-alive
/// connection notices shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Socket-timeout slice for reads of an **in-flight** request: each tick
/// re-checks the request deadline, so a stalling client is bounded by the
/// budget (408) instead of pinning a worker for the full socket timeout
/// per byte.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Arms the socket write timeout from the request's remaining budget (a
/// small floor keeps error responses deliverable even when the deadline
/// has already lapsed; unbounded deadlines fall back to `read_timeout` so
/// a dead peer can never pin a worker on write either).
fn arm_write_timeout(stream: &TcpStream, deadline: &Deadline, config: &ServeConfig) {
    let budget = deadline
        .remaining()
        .unwrap_or(config.read_timeout)
        .max(Duration::from_millis(250));
    let _ = stream.set_write_timeout(Some(budget));
}

/// One worker serving one (keep-alive) connection to completion.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut idle_deadline = Instant::now() + ctx.config.read_timeout;
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        // Wait for the next request's first byte in short slices so both
        // shutdown and the idle reaper stay responsive, then switch to the
        // full timeout for reading the (now in-flight) request.
        if reader.buffer().is_empty() {
            let _ = stream.set_read_timeout(Some(IDLE_POLL));
            match stream.peek(&mut [0u8; 1]) {
                Ok(0) => return, // peer closed
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= idle_deadline {
                        return; // reap idle keep-alive connection
                    }
                    continue;
                }
                Err(_) => return,
            }
        }
        // First byte of a request has arrived: arm its deadline. With
        // deadlines enabled, reads use short timeout slices so the budget
        // is polled; with `request_timeout = 0` the legacy behavior holds
        // (one hard socket timeout covering the whole read).
        let deadline = Deadline::after(ctx.config.request_timeout);
        let slice = if deadline.remaining().is_some() {
            READ_SLICE
        } else {
            ctx.config.read_timeout
        };
        let _ = stream.set_read_timeout(Some(slice));
        match read_request(&mut reader, ctx.config.max_body_bytes, deadline) {
            Ok(req) => {
                let close = req.close;
                arm_write_timeout(&stream, &req.deadline, &ctx.config);
                let mut obs = ObsCtx::new(
                    req.request_id.clone().unwrap_or_else(gen_request_id),
                    req.path.clone(),
                );
                let mut response = route(&req, ctx, &mut obs);
                // Every response — success, error, or shed — echoes the id.
                response.request_id = Some(obs.id.clone());
                let status = response.status;
                let mut out = &stream;
                let t0 = Instant::now();
                let write_result = response.write_to(&mut out, close);
                obs.record(Stage::Serialize, t0.elapsed());
                finish_request(ctx, obs, status, &req.deadline);
                if write_result.is_err() || close {
                    return;
                }
                idle_deadline = Instant::now() + ctx.config.read_timeout;
            }
            Err(HttpError::ConnectionClosed) => return,
            Err(HttpError::Io(_)) => return, // timeout or reset: reap
            Err(e) => {
                let err = match e {
                    HttpError::Timeout => ServeError::request_timeout(e.to_string()),
                    HttpError::TooLarge(_) => {
                        ServeError::new(ErrorCode::PayloadTooLarge, e.to_string())
                    }
                    _ => ServeError::bad_request(e.to_string()),
                };
                // The request never parsed, so no client id is available;
                // the failure still gets a record under a generated id.
                let mut obs = ObsCtx::new(gen_request_id(), "(read)");
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let response = err_response(ctx, &mut obs, err);
                let status = response.status;
                let mut out = &stream;
                let t0 = Instant::now();
                let _ = response.write_to(&mut out, true);
                obs.record(Stage::Serialize, t0.elapsed());
                finish_request(ctx, obs, status, &Deadline::unbounded());
                return;
            }
        }
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".into())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Counts and renders one classified error (the only path non-200
/// responses leave the server through, so the legacy aggregate counters,
/// the per-code counters, and the per-tenant counters stay consistent).
/// The error body and response header both carry the request id.
fn err_response(ctx: &ServerCtx, obs: &mut ObsCtx, err: ServeError) -> Response {
    let status = err.code.status();
    ctx.metrics.errors.record(err.code);
    obs.code = Some(err.code.as_str());
    // Attribute to the tenant only when one was already resolved — error
    // paths never mint tenant entries.
    if let Some(tenant) = obs.tenant.as_deref() {
        if let Some(stats) = ctx.tenants.get(tenant) {
            stats.errors.record(err.code);
        }
    }
    if status == 503 {
        ctx.metrics.shed.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        ctx.metrics.server_errors.fetch_add(1, Ordering::Relaxed);
    } else {
        ctx.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
    }
    err.to_response_with_id(&obs.id)
}

/// Build-info fields shared by `/healthz`, `/readyz`, and `/metrics`:
/// server version, active SIMD tier, and the distance-kernel contract
/// version — fleet tooling uses the pair (kernel, contract) to detect
/// tier drift across replicas before it becomes result drift.
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

/// Routes one parsed request. `obs` is the request's observability
/// context: endpoints record stage spans and tenant attribution into it.
fn route(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            ctx.metrics.health_requests.fetch_add(1, Ordering::Relaxed);
            let mut fields = vec![
                ("status", Value::Str("ok".into())),
                ("models", Value::Num(ctx.registry.len() as f64)),
                ("uptime_s", Value::Num(ctx.started.elapsed().as_secs_f64())),
            ];
            fields.extend(build_info_fields());
            Response::json(200, render(&obj(fields)))
        }
        ("GET", "/readyz") => readyz_endpoint(ctx),
        ("GET", "/metrics") => metrics_endpoint(req, ctx),
        ("GET", "/debug/requests") => debug_requests_endpoint(ctx),
        ("GET", "/models") => models_endpoint(ctx),
        ("GET", "/model") => model_endpoint(req, ctx, obs),
        ("POST", "/predict") => predict_endpoint(req, ctx, obs),
        ("POST", "/sample") => sample_endpoint(req, ctx, obs),
        ("POST", path)
            if path
                .strip_prefix("/models/")
                .is_some_and(|rest| rest.ends_with("/rows")) =>
        {
            ingest_endpoint(req, ctx, obs)
        }
        ("POST", path)
            if path
                .strip_prefix("/models/")
                .is_some_and(|rest| rest.ends_with("/rollback")) =>
        {
            rollback_endpoint(req, ctx, obs)
        }
        ("POST", path) if path.starts_with("/models/") => reload_endpoint(req, ctx, obs),
        ("DELETE", path) if path.starts_with("/models/") => delete_endpoint(req, ctx, obs),
        ("GET", path) if path.starts_with("/models/") => version_endpoint(req, ctx, obs),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/debug/requests" | "/models" | "/model"
            | "/predict" | "/sample",
        ) => err_response(
            ctx,
            obs,
            ServeError::new(
                ErrorCode::MethodNotAllowed,
                format!("method {} not allowed here", req.method),
            ),
        ),
        (_, path) if path.starts_with("/models/") => err_response(
            ctx,
            obs,
            ServeError::new(
                ErrorCode::MethodNotAllowed,
                format!("method {} not allowed here", req.method),
            ),
        ),
        _ => err_response(
            ctx,
            obs,
            ServeError::not_found(format!("no route for {}", req.path)),
        ),
    }
}

/// `GET /debug/requests`: the bounded in-memory ring of the N slowest and
/// N most recent errored requests, each with its full stage breakdown —
/// the "why was *this* request slow" endpoint.
fn debug_requests_endpoint(ctx: &ServerCtx) -> Response {
    let (slowest, errored) = ctx.ring.snapshot();
    let join = |records: &[gb_obs::RequestRecord]| {
        let items: Vec<String> = records.iter().map(gb_obs::RequestRecord::to_json).collect();
        format!("[{}]", items.join(","))
    };
    let body = format!(
        "{{\"capacity\":{},\"slowest\":{},\"errored\":{}}}",
        ctx.ring.capacity(),
        join(&slowest),
        join(&errored)
    );
    Response::json(200, body)
}

/// `GET /readyz`: readiness (vs `/healthz` liveness). Reports 200 only
/// while the server is accepting and routing work; flips to 503 the moment
/// shutdown begins so a router can drain this backend. The body carries
/// the boot-scan verdict (`boot_quarantined`) so an operator can tell a
/// clean boot from one that sidelined corrupt tenants.
fn readyz_endpoint(ctx: &ServerCtx) -> Response {
    ctx.metrics.health_requests.fetch_add(1, Ordering::Relaxed);
    let draining = ctx.stop.load(Ordering::SeqCst);
    let mut fields = vec![
        ("ready", Value::Bool(!draining)),
        ("draining", Value::Bool(draining)),
        ("models", Value::Num(ctx.registry.len() as f64)),
        (
            "boot_quarantined",
            Value::Num(ctx.registry.boot_quarantined() as f64),
        ),
        ("uptime_s", Value::Num(ctx.started.elapsed().as_secs_f64())),
    ];
    fields.extend(build_info_fields());
    let body = obj(fields);
    Response::json(if draining { 503 } else { 200 }, render(&body))
}

/// `GET /models`: every tenant with its residency state, plus the cache
/// totals and counters an operator needs to size `--model-mem-budget`.
fn models_endpoint(ctx: &ServerCtx) -> Response {
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
    Response::json(
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
            (
                "hits",
                Value::Num(stats.hits.load(Ordering::Relaxed) as f64),
            ),
            (
                "cold_reloads",
                Value::Num(stats.cold_reloads.load(Ordering::Relaxed) as f64),
            ),
            (
                "evictions",
                Value::Num(stats.evictions.load(Ordering::Relaxed) as f64),
            ),
        ])),
    )
}

/// `DELETE /models/{name}`: drops the tenant from memory, the catalog, and
/// the store file. In-flight requests holding the model finish unaffected.
fn delete_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let name = req.path.trim_start_matches("/models/");
    if name.is_empty() || name.contains('/') {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("model name must be a single path segment"),
        );
    }
    match obs.time(Stage::StoreIo, || ctx.registry.remove(name)) {
        Ok(true) => {
            ctx.metrics.deletes.fetch_add(1, Ordering::Relaxed);
            obs.tenant = Some(name.to_string());
            Response::json(
                200,
                render(&obj(vec![("deleted", Value::Str(name.to_string()))])),
            )
        }
        Ok(false) => err_response(
            ctx,
            obs,
            ServeError::not_found(format!("no model named '{name}'")),
        ),
        Err(e) => err_response(ctx, obs, ServeError::store_io(e)),
    }
}

fn metrics_endpoint(req: &crate::http::Request, ctx: &ServerCtx) -> Response {
    if req.query_param("format") == Some("prometheus") {
        return Response::text(200, prometheus_metrics(ctx), "text/plain; version=0.0.4");
    }
    let m = &ctx.metrics;
    let tenants = obj(ctx
        .tenants
        .snapshot()
        .iter()
        .map(|(name, stats)| (name.as_str(), stats.to_value()))
        .collect::<Vec<_>>());
    let body = obj(vec![
        ("uptime_s", Value::Num(ctx.started.elapsed().as_secs_f64())),
        ("build", obj(build_info_fields())),
        (
            "requests",
            obj(vec![
                (
                    "predict",
                    Value::Num(m.predict_requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "sample",
                    Value::Num(m.sample_requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "model",
                    Value::Num(m.model_requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "healthz",
                    Value::Num(m.health_requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "reload",
                    Value::Num(m.reloads.load(Ordering::Relaxed) as f64),
                ),
                (
                    "delete",
                    Value::Num(m.deletes.load(Ordering::Relaxed) as f64),
                ),
                (
                    "append",
                    Value::Num(m.appends.load(Ordering::Relaxed) as f64),
                ),
                (
                    "rollback",
                    Value::Num(m.rollbacks.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
        (
            "predict_rows",
            Value::Num(m.predict_rows.load(Ordering::Relaxed) as f64),
        ),
        (
            "append_rows",
            Value::Num(m.append_rows.load(Ordering::Relaxed) as f64),
        ),
        (
            "client_errors",
            Value::Num(m.client_errors.load(Ordering::Relaxed) as f64),
        ),
        (
            "server_errors",
            Value::Num(m.server_errors.load(Ordering::Relaxed) as f64),
        ),
        ("shed", Value::Num(m.shed.load(Ordering::Relaxed) as f64)),
        ("errors_by_code", m.errors.to_value()),
        ("registry", {
            let snap = ctx.registry.snapshot();
            let r = &ctx.registry.stats;
            obj(vec![
                ("resident_models", Value::Num(snap.resident as f64)),
                ("cold_models", Value::Num(snap.cold as f64)),
                ("resident_bytes", Value::Num(snap.resident_bytes as f64)),
                (
                    "budget_bytes",
                    snap.budget_bytes
                        .map_or(Value::Null, |b| Value::Num(b as f64)),
                ),
                ("hits", Value::Num(r.hits.load(Ordering::Relaxed) as f64)),
                (
                    "cold_reloads",
                    Value::Num(r.cold_reloads.load(Ordering::Relaxed) as f64),
                ),
                (
                    "evictions",
                    Value::Num(r.evictions.load(Ordering::Relaxed) as f64),
                ),
                ("reload_latency_us", r.reload_latency.to_value()),
            ])
        }),
        ("predict_latency_us", m.predict_latency.to_value()),
        ("tenants", tenants),
    ]);
    Response::json(200, render(&body))
}

/// Emits one latency histogram family in Prometheus exposition format:
/// cumulative `_bucket` series over the log2 µs buckets plus `+Inf`,
/// `_sum`, and `_count`.
pub(crate) fn prom_histogram(
    p: &mut PromText,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &LatencyHistogram,
) {
    p.metric(name, "histogram", help);
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for i in 0..LATENCY_BUCKETS {
        cumulative += h.bucket(i);
        let le = (1u64 << (i + 1)).to_string();
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", le.as_str()));
        p.sample(&bucket_name, &ls, cumulative as f64);
    }
    let mut ls: Vec<(&str, &str)> = labels.to_vec();
    ls.push(("le", "+Inf"));
    p.sample(&bucket_name, &ls, h.count() as f64);
    p.sample(&format!("{name}_sum"), labels, h.total_us() as f64);
    p.sample(&format!("{name}_count"), labels, h.count() as f64);
}

/// Renders the whole metrics registry — global counters, registry
/// stats, latency histograms, and per-tenant series — in
/// Prometheus text exposition format (`GET /metrics?format=prometheus`).
#[allow(clippy::too_many_lines)]
fn prometheus_metrics(ctx: &ServerCtx) -> String {
    let m = &ctx.metrics;
    let mut p = PromText::new();

    p.metric(
        "gb_build_info",
        "gauge",
        "Build version, active SIMD kernel, and kernel contract version \
         (value is always 1)",
    );
    let contract = gb_dataset::CONTRACT_VERSION.to_string();
    p.sample(
        "gb_build_info",
        &[
            ("version", SERVER_VERSION),
            ("kernel", gb_dataset::active_kernel().name()),
            ("kernel_contract", contract.as_str()),
        ],
        1.0,
    );
    p.metric("gb_uptime_seconds", "gauge", "Seconds since server start");
    p.sample(
        "gb_uptime_seconds",
        &[],
        ctx.started.elapsed().as_secs_f64(),
    );

    p.metric(
        "gb_requests_total",
        "counter",
        "Completed requests by endpoint",
    );
    for (endpoint, counter) in [
        ("predict", &m.predict_requests),
        ("sample", &m.sample_requests),
        ("model", &m.model_requests),
        ("healthz", &m.health_requests),
        ("reload", &m.reloads),
        ("delete", &m.deletes),
        ("append", &m.appends),
        ("rollback", &m.rollbacks),
    ] {
        p.sample(
            "gb_requests_total",
            &[("endpoint", endpoint)],
            counter.load(Ordering::Relaxed) as f64,
        );
    }
    p.metric("gb_predict_rows_total", "counter", "Rows predicted");
    p.sample(
        "gb_predict_rows_total",
        &[],
        m.predict_rows.load(Ordering::Relaxed) as f64,
    );
    p.metric(
        "gb_append_rows_total",
        "counter",
        "Labelled rows ingested through online maintenance",
    );
    p.sample(
        "gb_append_rows_total",
        &[],
        m.append_rows.load(Ordering::Relaxed) as f64,
    );
    p.metric("gb_errors_total", "counter", "Errors by taxonomy code");
    for code in ErrorCode::ALL {
        p.sample(
            "gb_errors_total",
            &[("code", code.as_str())],
            m.errors.get(code) as f64,
        );
    }
    p.metric(
        "gb_shed_total",
        "counter",
        "503 responses from the admission gates",
    );
    p.sample("gb_shed_total", &[], m.shed.load(Ordering::Relaxed) as f64);
    p.metric("gb_client_errors_total", "counter", "4xx responses");
    p.sample(
        "gb_client_errors_total",
        &[],
        m.client_errors.load(Ordering::Relaxed) as f64,
    );
    p.metric(
        "gb_server_errors_total",
        "counter",
        "Non-shed 5xx responses",
    );
    p.sample(
        "gb_server_errors_total",
        &[],
        m.server_errors.load(Ordering::Relaxed) as f64,
    );

    let snap = ctx.registry.snapshot();
    let r = &ctx.registry.stats;
    p.metric(
        "gb_registry_resident_models",
        "gauge",
        "Models resident in memory",
    );
    p.sample("gb_registry_resident_models", &[], snap.resident as f64);
    p.metric(
        "gb_registry_resident_bytes",
        "gauge",
        "Bytes of resident models",
    );
    p.sample(
        "gb_registry_resident_bytes",
        &[],
        snap.resident_bytes as f64,
    );
    p.metric(
        "gb_registry_hits_total",
        "counter",
        "Warm registry acquisitions",
    );
    p.sample(
        "gb_registry_hits_total",
        &[],
        r.hits.load(Ordering::Relaxed) as f64,
    );
    p.metric(
        "gb_registry_cold_reloads_total",
        "counter",
        "Cold reloads from the model store",
    );
    p.sample(
        "gb_registry_cold_reloads_total",
        &[],
        r.cold_reloads.load(Ordering::Relaxed) as f64,
    );
    p.metric("gb_registry_evictions_total", "counter", "LRU evictions");
    p.sample(
        "gb_registry_evictions_total",
        &[],
        r.evictions.load(Ordering::Relaxed) as f64,
    );

    prom_histogram(
        &mut p,
        "gb_predict_latency_us",
        "End-to-end /predict handling latency (µs)",
        &[],
        &m.predict_latency,
    );
    prom_histogram(
        &mut p,
        "gb_reload_latency_us",
        "Cold-reload latency (µs)",
        &[],
        &r.reload_latency,
    );

    let tenants = ctx.tenants.snapshot();
    if !tenants.is_empty() {
        p.metric("gb_tenant_requests_total", "counter", "Requests by tenant");
        p.metric(
            "gb_tenant_rows_total",
            "counter",
            "Predicted rows by tenant",
        );
        p.metric(
            "gb_tenant_reloads_total",
            "counter",
            "Hot reloads by tenant",
        );
        p.metric(
            "gb_tenant_appends_total",
            "counter",
            "Accepted row appends by tenant",
        );
        p.metric(
            "gb_tenant_append_rows_total",
            "counter",
            "Ingested rows by tenant",
        );
        p.metric(
            "gb_tenant_rollbacks_total",
            "counter",
            "Accepted rollbacks by tenant",
        );
        p.metric(
            "gb_tenant_errors_total",
            "counter",
            "Errors by tenant and code",
        );
        p.metric(
            "gb_tenant_predict_latency_us",
            "summary",
            "Per-tenant predict latency quantiles (µs, histogram-interpolated)",
        );
        for (name, stats) in &tenants {
            let tenant = name.as_str();
            p.sample(
                "gb_tenant_requests_total",
                &[("tenant", tenant)],
                stats.requests.load(Ordering::Relaxed) as f64,
            );
            p.sample(
                "gb_tenant_rows_total",
                &[("tenant", tenant)],
                stats.rows.load(Ordering::Relaxed) as f64,
            );
            p.sample(
                "gb_tenant_reloads_total",
                &[("tenant", tenant)],
                stats.reloads.load(Ordering::Relaxed) as f64,
            );
            p.sample(
                "gb_tenant_appends_total",
                &[("tenant", tenant)],
                stats.appends.load(Ordering::Relaxed) as f64,
            );
            p.sample(
                "gb_tenant_append_rows_total",
                &[("tenant", tenant)],
                stats.append_rows.load(Ordering::Relaxed) as f64,
            );
            p.sample(
                "gb_tenant_rollbacks_total",
                &[("tenant", tenant)],
                stats.rollbacks.load(Ordering::Relaxed) as f64,
            );
            // Zero-count codes are skipped: tenant × code is the one label
            // product here that can sprawl.
            for (code, count) in TenantRegistry::nonzero_errors(stats) {
                p.sample(
                    "gb_tenant_errors_total",
                    &[("tenant", tenant), ("code", code.as_str())],
                    count as f64,
                );
            }
            let h = &stats.predict_latency;
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                p.sample(
                    "gb_tenant_predict_latency_us",
                    &[("tenant", tenant), ("quantile", label)],
                    h.percentile_us(q),
                );
            }
            p.sample(
                "gb_tenant_predict_latency_us_sum",
                &[("tenant", tenant)],
                h.total_us() as f64,
            );
            p.sample(
                "gb_tenant_predict_latency_us_count",
                &[("tenant", tenant)],
                h.count() as f64,
            );
        }
    }
    p.finish()
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

fn model_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    ctx.metrics.model_requests.fetch_add(1, Ordering::Relaxed);
    let name = req.query_param("name").unwrap_or("default");
    if req.deadline.expired() {
        return err_response(
            ctx,
            obs,
            ServeError::deadline_exceeded("deadline expired before model lookup"),
        );
    }
    match obs.time(Stage::StoreIo, || ctx.registry.acquire(name)) {
        Ok(Some(model)) => {
            obs.tenant = Some(model.name.clone());
            Response::json(200, render(&model_stats_value(&model)))
        }
        Ok(None) => err_response(
            ctx,
            obs,
            ServeError::not_found(format!("no model named '{name}'")),
        ),
        Err(e) => err_response(ctx, obs, ServeError::store_io(e)),
    }
}

fn parse_body(req: &crate::http::Request) -> Result<Value, String> {
    let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str::<Value>(text).map_err(|e| format!("bad JSON: {e}"))
}

/// Extracts the query rows from a predict body: either `"rows": [[..]..]`
/// or `"row": [..]`. Validates width and finiteness.
fn extract_rows(body: &Value, n_features: usize) -> Result<Vec<f64>, String> {
    let rows: Vec<&Value> = match (body.get("rows"), body.get("row")) {
        (Some(Value::Arr(rows)), None) => rows.iter().collect(),
        (None, Some(row @ Value::Arr(_))) => vec![row],
        (Some(_), Some(_)) => return Err("provide either 'row' or 'rows', not both".into()),
        _ => return Err("missing 'row' (array) or 'rows' (array of arrays)".into()),
    };
    if rows.is_empty() {
        return Err("'rows' is empty".into());
    }
    let mut flat = Vec::with_capacity(rows.len() * n_features);
    for (i, row) in rows.iter().enumerate() {
        let Value::Arr(values) = row else {
            return Err(format!("row {i} is not an array"));
        };
        if values.len() != n_features {
            return Err(format!(
                "row {i} has {} values, model expects {n_features}",
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

fn predict_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let start = Instant::now();
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let name = match body.get("model") {
        Some(Value::Str(s)) => s.as_str(),
        None => "default",
        Some(_) => {
            return err_response(
                ctx,
                obs,
                ServeError::bad_request("'model' must be a string"),
            )
        }
    };
    // Deadline gate before the expensive part: a request whose budget
    // lapsed during read must not trigger a cold reload it can no longer
    // use the result of.
    if req.deadline.expired() {
        return err_response(
            ctx,
            obs,
            ServeError::deadline_exceeded("deadline expired before model acquisition"),
        );
    }
    // `acquire` transparently rebuilds a cold (evicted or
    // persisted-but-not-yet-loaded) tenant from the model store — the
    // `store_io` span (warm hits cost ~ns, cold reloads dominate tails).
    let model = match obs.time(Stage::StoreIo, || ctx.registry.acquire(name)) {
        Ok(Some(model)) => model,
        Ok(None) => {
            return err_response(
                ctx,
                obs,
                ServeError::not_found(format!("no model named '{name}'")),
            )
        }
        Err(e) => return err_response(ctx, obs, ServeError::store_io(e)),
    };
    // Tenant resolved: from here on, counters attribute to it.
    obs.tenant = Some(model.name.clone());
    let tenant = ctx.tenants.touch(&model.name);
    let rows = match extract_rows(&body, model.n_features) {
        Ok(r) => r,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let n_rows = rows.len() / model.n_features;
    obs.rows = n_rows as u64;
    // Second deadline gate: a cold reload may have spent the budget.
    if req.deadline.expired() {
        return err_response(
            ctx,
            obs,
            ServeError::deadline_exceeded("deadline expired before predict"),
        );
    }
    // Contain a panicking predict (e.g. a cover whose geometry slipped
    // past validation): this request fails with a 500 naming the model,
    // and the worker goes on serving its connection.
    let predicted = obs.time(Stage::Predict, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predictor.predict_batch(&rows, model.n_features)
        }))
    });
    let predictions = match predicted {
        Ok(predictions) => predictions,
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "prediction panicked".into());
            return err_response(
                ctx,
                obs,
                ServeError::internal(format!("prediction failed for '{}': {what}", model.name)),
            );
        }
    };
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
    obs.time(Stage::Serialize, || {
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
    })
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

fn sample_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let Some(Value::Str(csv)) = body.get("csv") else {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("missing 'csv' (string: headered CSV, label last)"),
        );
    };
    let rho = match body.get("rho") {
        Some(Value::Num(n)) => *n as usize,
        None => 5,
        Some(_) => {
            return err_response(ctx, obs, ServeError::bad_request("'rho' must be a number"))
        }
    };
    if rho < 2 {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("'rho' must be at least 2"),
        );
    }
    let seed = match body.get("seed") {
        Some(Value::Num(n)) => *n as u64,
        None => 42,
        Some(_) => {
            return err_response(ctx, obs, ServeError::bad_request("'seed' must be a number"))
        }
    };
    let data = match gb_dataset::io::read_csv_str(csv, &gb_dataset::io::CsvOptions::default()) {
        Ok(d) => d,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(format!("bad CSV: {e}"))),
    };
    if data.n_classes() < 2 {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request(
                "dataset has a single class; borderline sampling needs at least 2",
            ),
        );
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
    obs.time(Stage::Serialize, || {
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
    })
}

/// Renders one [`ProgressEvent`] as a serde [`Value`] for `/sample`
/// responses (field-compatible with [`ProgressEvent::to_json`]).
fn progress_event_value(event: &ProgressEvent) -> Value {
    match *event {
        ProgressEvent::Granulate {
            iteration,
            balls,
            conflicts,
            noise,
            remaining,
            knn_queries,
            het_queries,
            range_queries,
            elapsed_us,
        } => obj(vec![
            ("phase", Value::Str("granulate".into())),
            ("iteration", Value::Num(f64::from(iteration))),
            ("balls", Value::Num(balls as f64)),
            ("conflicts", Value::Num(conflicts as f64)),
            ("noise", Value::Num(noise as f64)),
            ("remaining", Value::Num(remaining as f64)),
            ("knn_queries", Value::Num(knn_queries as f64)),
            ("het_queries", Value::Num(het_queries as f64)),
            ("range_queries", Value::Num(range_queries as f64)),
            ("elapsed_us", Value::Num(elapsed_us as f64)),
        ]),
        ProgressEvent::Borderline {
            balls,
            borderline,
            sampled,
            elapsed_us,
        } => obj(vec![
            ("phase", Value::Str("borderline".into())),
            ("balls", Value::Num(balls as f64)),
            ("borderline", Value::Num(borderline as f64)),
            ("sampled", Value::Num(sampled as f64)),
            ("elapsed_us", Value::Num(elapsed_us as f64)),
        ]),
    }
}

fn reload_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let name = req.path.trim_start_matches("/models/");
    if name.is_empty() || name.contains('/') {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("model name must be a single path segment"),
        );
    }
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    if let Err(e) = reject_unknown_keys(&body, &RELOAD_KEYS, "POST /models/{name}") {
        return err_response(ctx, obs, ServeError::bad_request(e));
    }
    let Some(model_value) = body.get("model") else {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("missing 'model' (RdGbgModel JSON object)"),
        );
    };
    let k = match body.get("k") {
        Some(Value::Num(n)) if *n >= 1.0 => *n as usize,
        None => 1,
        Some(_) => {
            return err_response(
                ctx,
                obs,
                ServeError::bad_request("'k' must be a positive number"),
            )
        }
    };
    let rule = match body.get("rule") {
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("surface") => DistanceRule::Surface,
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("center") => DistanceRule::Center,
        None => DistanceRule::Surface,
        Some(_) => {
            return err_response(
                ctx,
                obs,
                ServeError::bad_request("'rule' must be 'surface' or 'center'"),
            )
        }
    };
    let options = LoadOptions {
        k,
        rule,
        ..LoadOptions::default()
    };
    // `publish_value` persists to the model store (when one is attached)
    // before the swap, so an accepted reload survives a restart — the
    // store write is the `store_io` span.
    match obs.time(Stage::StoreIo, || {
        ctx.registry.publish_value(name, model_value, &options)
    }) {
        Ok(model) => {
            ctx.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            obs.tenant = Some(model.name.clone());
            ctx.tenants
                .touch(&model.name)
                .reloads
                .fetch_add(1, Ordering::Relaxed);
            Response::json(200, render(&model_stats_value(&model)))
        }
        Err(PublishError::Rejected(e)) => err_response(ctx, obs, ServeError::bad_request(e)),
        Err(e @ PublishError::Store(_)) => {
            err_response(ctx, obs, ServeError::store_io(e.to_string()))
        }
    }
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

/// Extracts the tenant name from `/models/{name}/{action}`, rejecting
/// empty and multi-segment names the same way publish/delete do.
fn mutation_tenant<'a>(path: &'a str, action: &str) -> Result<&'a str, String> {
    let name = path
        .trim_start_matches("/models/")
        .strip_suffix(action)
        .unwrap_or("");
    if name.is_empty() || name.contains('/') {
        return Err("model name must be a single path segment".into());
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
    let mut flat = Vec::with_capacity(rows.len() * n_features);
    for (i, row) in rows.iter().enumerate() {
        let Value::Arr(values) = row else {
            return Err(format!("row {i} is not an array"));
        };
        if values.len() != n_features {
            return Err(format!(
                "row {i} has {} values, row 0 has {n_features}",
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
    let mut create = CreateOptions::default();
    match body.get("rho") {
        Some(Value::Num(n)) if *n >= 2.0 && n.fract() == 0.0 => create.rho = *n as usize,
        None => {}
        Some(_) => return Err("'rho' must be an integer of at least 2".into()),
    }
    match body.get("n_classes") {
        Some(Value::Num(n)) if *n >= 2.0 && n.fract() == 0.0 => {
            create.n_classes = Some(*n as usize);
        }
        None => {}
        Some(_) => return Err("'n_classes' must be an integer of at least 2".into()),
    }
    match body.get("k") {
        Some(Value::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => create.load.k = *n as usize,
        None => {}
        Some(_) => return Err("'k' must be a positive integer".into()),
    }
    match body.get("rule") {
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("surface") => {
            create.load.rule = DistanceRule::Surface;
        }
        Some(Value::Str(s)) if s.eq_ignore_ascii_case("center") => {
            create.load.rule = DistanceRule::Center;
        }
        None => {}
        Some(_) => return Err("'rule' must be 'surface' or 'center'".into()),
    }
    Ok(create)
}

/// Renders an [`AppendStats`] telemetry block for ingest acks.
fn append_stats_value(stats: &gbabs::AppendStats) -> Value {
    obj(vec![
        ("appended", Value::Num(stats.appended as f64)),
        (
            "reused_decisions",
            Value::Num(stats.reused_decisions as f64),
        ),
        (
            "recomputed_decisions",
            Value::Num(stats.recomputed_decisions as f64),
        ),
        ("reused_balls", Value::Num(stats.reused_balls as f64)),
        ("rebuilt_balls", Value::Num(stats.rebuilt_balls as f64)),
        ("full_rebuild", Value::Bool(stats.full_rebuild)),
    ])
}

/// `POST /models/{name}/rows`: online maintenance. Appends labelled rows
/// to a maintained tenant (creating it on first contact), re-granulates
/// incrementally, persists a new immutable store version, and swaps the
/// rebuilt predictor in — all under the registry's publish lock, timed as
/// the `ingest` stage.
fn ingest_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let name = match mutation_tenant(&req.path, "/rows") {
        Ok(name) => name,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let (features, labels, n_features) = match extract_labelled_rows(&body) {
        Ok(batch) => batch,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let create = match extract_create_options(&body) {
        Ok(c) => c,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    obs.rows = labels.len() as u64;
    // Same gate as predict: an expired request must not trigger a
    // re-granulation whose result it can no longer read.
    if req.deadline.expired() {
        return err_response(
            ctx,
            obs,
            ServeError::deadline_exceeded("deadline expired before ingest"),
        );
    }
    let receipt = match obs.time(Stage::Ingest, || {
        ctx.registry
            .append_rows(name, &features, &labels, n_features, &create)
    }) {
        Ok(receipt) => receipt,
        Err(e) => return err_response(ctx, obs, ingest_error(e)),
    };
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
    obs.time(Stage::Serialize, || {
        let mut fields = vec![
            ("model", Value::Str(name.to_string())),
            ("created", Value::Bool(receipt.created)),
            ("appended", Value::Num(labels.len() as f64)),
            ("n_rows", Value::Num(receipt.n_rows as f64)),
            ("version", Value::Num(receipt.serving.version as f64)),
            ("store_version", Value::Num(receipt.store_version as f64)),
            ("n_balls", Value::Num(receipt.serving.stats.n_balls as f64)),
            ("request_id", Value::Str(request_id)),
        ];
        if let Some(stats) = &receipt.stats {
            fields.push(("incremental", append_stats_value(stats)));
        }
        Response::json(200, render(&obj(fields)))
    })
}

/// `POST /models/{name}/rollback`: re-activates a retained version by
/// copying its content forward as a **new** head — the chain stays
/// append-only, so the rollback itself is auditable and revertible.
fn rollback_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let name = match mutation_tenant(&req.path, "/rollback") {
        Ok(name) => name,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(e) => return err_response(ctx, obs, ServeError::bad_request(e)),
    };
    if let Err(e) = reject_unknown_keys(&body, &ROLLBACK_KEYS, "/rollback") {
        return err_response(ctx, obs, ServeError::bad_request(e));
    }
    let version = match body.get("version") {
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        _ => {
            return err_response(
                ctx,
                obs,
                ServeError::bad_request("missing 'version' (non-negative integer)"),
            )
        }
    };
    if req.deadline.expired() {
        return err_response(
            ctx,
            obs,
            ServeError::deadline_exceeded("deadline expired before rollback"),
        );
    }
    let receipt = match obs.time(Stage::Ingest, || ctx.registry.rollback(name, version)) {
        Ok(receipt) => receipt,
        Err(e) => return err_response(ctx, obs, ingest_error(e)),
    };
    ctx.metrics.rollbacks.fetch_add(1, Ordering::Relaxed);
    obs.tenant = Some(name.to_string());
    ctx.tenants
        .touch(name)
        .rollbacks
        .fetch_add(1, Ordering::Relaxed);
    Response::json(
        200,
        render(&obj(vec![
            ("model", Value::Str(name.to_string())),
            ("rolled_back_to", Value::Num(receipt.rolled_back_to as f64)),
            ("store_version", Value::Num(receipt.store_version as f64)),
            ("version", Value::Num(receipt.serving.version as f64)),
            ("n_balls", Value::Num(receipt.serving.stats.n_balls as f64)),
        ])),
    )
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
fn version_endpoint(req: &crate::http::Request, ctx: &ServerCtx, obs: &mut ObsCtx) -> Response {
    let name = req.path.trim_start_matches("/models/");
    if name.is_empty() || name.contains('/') {
        return err_response(
            ctx,
            obs,
            ServeError::bad_request("model name must be a single path segment"),
        );
    }
    ctx.metrics.model_requests.fetch_add(1, Ordering::Relaxed);
    let version = match req.query_param("version") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => Some(v),
            Err(_) => {
                return err_response(
                    ctx,
                    obs,
                    ServeError::bad_request("'version' must be a non-negative integer"),
                )
            }
        },
        None => None,
    };
    match obs.time(Stage::StoreIo, || ctx.registry.version_info(name, version)) {
        Ok(Some(info)) => {
            obs.tenant = Some(info.name.clone());
            Response::json(200, render(&version_info_value(&info)))
        }
        Ok(None) => err_response(
            ctx,
            obs,
            ServeError::not_found(format!("no model named '{name}'")),
        ),
        Err(e) => err_response(ctx, obs, ingest_error(e)),
    }
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
            .load(
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
