//! Shared-nothing sharding router: one `gbabs router` process in front of
//! N independent gb-serve backends.
//!
//! Tenants (model names) are partitioned over the backends with a
//! **consistent-hash ring**: each backend contributes `vnodes` points
//! (hash of `"{addr}#{vnode}"`), the points are sorted, and a tenant is
//! owned by the backend whose point is the first at or after the tenant's
//! hash (wrapping). The ring is a pure function of the configured backend
//! list, so assignments are deterministic across router restarts, and
//! adding or removing one of N backends moves only ~1/N of the tenants —
//! everything else keeps its shard (and its warm cache).
//!
//! Health is **layered on top of the ring, not into it**: a background
//! thread polls every backend's `/readyz`, and an unhealthy backend is
//! skipped during the successor walk rather than removed from the ring.
//! When it recovers, its tenants return to exactly where they were. A
//! forward that fails at the transport level marks the backend down
//! immediately (fail-fast) and retries the next owner in ring order.
//!
//! Routing is **per-endpoint**:
//!
//! * `/predict` and `/model` go to the tenant's owner only — this is what
//!   keeps each shard's model cache (and LRU budget) isolated.
//! * `POST /models/{name}` and `DELETE /models/{name}` fan out to every
//!   healthy backend: models are small, so each shard persists every
//!   tenant in its own `--model-dir`, and a failed-over tenant cold-loads
//!   on the ring successor instead of 404ing.
//! * `/sample` is stateless and round-robins over healthy backends.
//! * `/models` fans out and reports per-backend snapshots.
//!
//! The router runs the same request path as a shard (`service.rs`):
//! its own access log, `/metrics` with per-backend health and hop-latency
//! histograms, `/debug/requests`, and `/cluster`. It propagates
//! `X-Request-Id` and `X-Deadline-Ms` across the hop so one id joins the
//! router's access log with exactly one backend's. See `docs/CLUSTER.md`
//! for the operator's guide.

use crate::client::{RetryPolicy, RetryingClient};
use crate::deadline::Deadline;
use crate::errors::{ErrorCode, ErrorStats, ServeError};
use crate::http::{Request, Response};
use crate::metrics::{self as m, Exposition, LatencyHistogram};
use crate::server::SERVER_VERSION;
use crate::service::{
    obj, render, Background, Bound, Limits, Reply, Route, Running, Service, Shell,
};
use gb_obs::{RequestCtx as ObsCtx, Stage};
use serde::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bound on per-backend virtual nodes (the ring has
/// `backends × vnodes` points; past ~1024 per backend the balance gain is
/// noise and ring construction cost isn't).
pub const MAX_VNODES: usize = 1024;

/// Tunables for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend gb-serve addresses (`host:port`), in ring order. The list
    /// is the cluster membership: changing it (and restarting the router)
    /// is the only way tenants move shards.
    pub backends: Vec<String>,
    /// Worker threads (= max concurrently routed connections).
    pub workers: usize,
    /// Admission gate: connections allowed to wait for a worker before
    /// the accept loop sheds with 503.
    pub backlog: usize,
    /// Virtual nodes per backend (clamped to 1..=[`MAX_VNODES`]). More
    /// vnodes → better balance, larger ring.
    pub vnodes: usize,
    /// How often the health thread polls each backend's `/readyz`.
    pub health_interval: Duration,
    /// Per-connection idle read timeout (keep-alive reaper).
    pub read_timeout: Duration,
    /// Per-request budget, propagated to the backend via `X-Deadline-Ms`
    /// and enforced on the hop. `Duration::ZERO` disables deadlines.
    pub request_timeout: Duration,
    /// Max accepted request body size.
    pub max_body_bytes: usize,
    /// JSONL access-log target (file path, `"stderr"`/`"-"`, or `None`).
    pub access_log: Option<String>,
}

/// Backoff policy for the per-backend [`RetryingClient`] hop. Kept short:
/// ring failover — not in-place retry — is the router's main recovery
/// tool.
const HOP_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 2,
    base: Duration::from_millis(5),
    cap: Duration::from_millis(100),
};

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            workers: 8,
            backlog: 64,
            vnodes: 64,
            health_interval: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(10),
            max_body_bytes: 64 << 20,
            access_log: None,
        }
    }
}

/// FNV-1a 64 over `key`, finished with the SplitMix64 mixer (FNV alone
/// clusters short ASCII keys; the finalizer spreads them over the ring).
fn hash_key(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The consistent-hash ring: a sorted list of `(point, backend index)`
/// pairs, `vnodes` points per backend. Pure data — health filtering
/// happens in the caller ([`HashRing::first_alive`]), never by rebuilding
/// the ring, so a recovering backend gets its exact old tenants back.
#[derive(Debug, Clone)]
pub struct HashRing {
    points: Vec<(u64, usize)>,
    n: usize,
}

impl HashRing {
    /// Builds the ring over `backends` with `vnodes` points each
    /// (clamped to 1..=[`MAX_VNODES`]). Deterministic: the same backend
    /// list always yields the same assignments.
    #[must_use]
    pub fn build(backends: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.clamp(1, MAX_VNODES);
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (idx, addr) in backends.iter().enumerate() {
            for v in 0..vnodes {
                points.push((hash_key(&format!("{addr}#{v}")), idx));
            }
        }
        points.sort_unstable();
        Self {
            points,
            n: backends.len(),
        }
    }

    /// Number of backends the ring was built over.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.n
    }

    /// The owning backend index for `tenant` — the first ring point at or
    /// after the tenant's hash, wrapping. `None` only for an empty ring.
    #[must_use]
    pub fn owner(&self, tenant: &str) -> Option<usize> {
        self.preference(tenant).into_iter().next()
    }

    /// All backends in **failover order** for `tenant`: the owner first,
    /// then each distinct backend encountered walking the ring clockwise.
    /// Contains every backend exactly once.
    #[must_use]
    pub fn preference(&self, tenant: &str) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = hash_key(tenant);
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut seen = vec![false; self.n];
        let mut order = Vec::with_capacity(self.n);
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
                if order.len() == self.n {
                    break;
                }
            }
        }
        order
    }

    /// The first backend in `tenant`'s failover order whose `alive` flag
    /// is set — the live owner. `None` when every backend is down.
    #[must_use]
    pub fn first_alive(&self, tenant: &str, alive: &[bool]) -> Option<usize> {
        self.preference(tenant)
            .into_iter()
            .find(|&idx| alive.get(idx).copied().unwrap_or(false))
    }
}

/// Per-backend live state: health flag, counters, hop histogram, and a
/// pool of keep-alive connections.
struct Backend {
    addr: String,
    healthy: AtomicBool,
    /// Requests forwarded to (and answered by) this backend.
    forwarded: AtomicU64,
    /// Forward attempts that failed at the transport level.
    forward_errors: AtomicU64,
    /// Health transitions (up→down and down→up) observed.
    health_flips: AtomicU64,
    /// Router→backend hop latency (full exchange, including in-hop
    /// retries).
    hop_latency: LatencyHistogram,
    /// Idle keep-alive clients, checked out per forward.
    pool: Mutex<Vec<RetryingClient>>,
}

impl Backend {
    fn new(addr: String) -> Self {
        Self {
            addr,
            // Born unhealthy: the first health pass (or first successful
            // forward) promotes. /readyz on the router reports not-ready
            // until at least one backend is up.
            healthy: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            health_flips: AtomicU64::new(0),
            hop_latency: LatencyHistogram::default(),
            pool: Mutex::new(Vec::new()),
        }
    }

    fn set_healthy(&self, up: bool) {
        if self.healthy.swap(up, Ordering::SeqCst) != up {
            self.health_flips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Router-level counters (the backend-attributed ones live on
/// [`Backend`], requests and sheds on the shell).
#[derive(Default)]
struct RouterMetrics {
    forwarded: AtomicU64,
    forward_errors: AtomicU64,
    /// Requests that found no healthy backend (the 503 `overloaded`
    /// path).
    no_owner: AtomicU64,
    errors: ErrorStats,
    hop_latency: LatencyHistogram,
}

/// Shared state every router worker routes against.
struct RouterCtx {
    config: RouterConfig,
    ring: HashRing,
    backends: Vec<Backend>,
    metrics: RouterMetrics,
    shell: Shell,
    /// Round-robin cursor for `/sample`.
    rr: AtomicUsize,
    /// Seed counter for per-checkout [`RetryingClient`] jitter streams.
    seeds: AtomicU64,
}

impl RouterCtx {
    fn alive(&self) -> Vec<bool> {
        self.backends
            .iter()
            .map(|b| b.healthy.load(Ordering::SeqCst))
            .collect()
    }

    fn healthy_count(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.healthy.load(Ordering::SeqCst))
            .count()
    }
}

/// A bound (not yet serving) router.
pub struct Router {
    inner: Bound<RouterCtx>,
}

/// Handle to a running router; call [`RouterHandle::stop`] to shut down
/// (dropping the handle does not).
pub struct RouterHandle {
    inner: Running<RouterCtx>,
}

impl Router {
    /// Binds the listener and assembles the shared state. The backend
    /// list must be non-empty; backends start unhealthy until the first
    /// `/readyz` poll.
    ///
    /// # Errors
    /// Bind failures, access-log open failures, or an empty backend list.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one --backend",
            ));
        }
        let limits = Limits {
            workers: config.workers,
            backlog: config.backlog,
            read_timeout: config.read_timeout,
            request_timeout: config.request_timeout,
            max_body_bytes: config.max_body_bytes,
        };
        let ctx = RouterCtx {
            ring: HashRing::build(&config.backends, config.vnodes),
            backends: config.backends.iter().cloned().map(Backend::new).collect(),
            metrics: RouterMetrics::default(),
            shell: Shell::new(limits, config.access_log.as_deref())?,
            rr: AtomicUsize::new(0),
            seeds: AtomicU64::new(0x6b8b_4567_327b_23c6),
            config,
        };
        let addr = ctx.config.addr.clone();
        Ok(Router {
            inner: Bound::bind(&addr, ctx)?,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Runs one synchronous health pass (every backend polled once)
    /// before serving. Optional: the background thread converges within
    /// one `health_interval` anyway; calling this avoids a cold router
    /// 503ing its first requests.
    pub fn warm_up(&self) {
        health_pass(self.inner.service());
    }

    /// Spawns the accept loop, worker pool, and health thread.
    ///
    /// # Errors
    /// Propagates address/thread-spawn failures.
    pub fn start(self) -> std::io::Result<RouterHandle> {
        Ok(RouterHandle {
            inner: self.inner.start()?,
        })
    }
}

impl RouterHandle {
    /// The routing address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Blocks for the router's lifetime (foreground `gbabs router` mode).
    pub fn wait(self) {
        self.inner.wait();
    }

    /// Stops accepting, drains the workers, joins every thread, and
    /// flushes the access log.
    pub fn stop(self) {
        self.inner.stop();
    }
}

impl Service for RouterCtx {
    const NAME: &'static str = "router";
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("GET", "/healthz", healthz_endpoint),
        Route::new("GET", "/readyz", readyz_endpoint),
        Route::new("GET", "/cluster", cluster_endpoint),
        Route::new("POST", "/predict", predict_endpoint),
        Route::new("GET", "/model", model_endpoint),
        Route::new("POST", "/sample", sample_endpoint),
        Route::new("GET", "/models", models_endpoint),
        Route::new("POST", "/models/*", publish_endpoint),
        Route::new("DELETE", "/models/*", publish_endpoint),
        Route::new("GET", "/models/*", version_endpoint),
    ];
    const FAMILIES: &'static [&'static m::Family] = m::ROUTER_FAMILIES;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    /// Counts every error the router originates; relayed backend errors
    /// are the backend's.
    fn count_error(&self, _: Option<&str>, code: ErrorCode) {
        self.metrics.errors.record(code);
    }

    fn observe(&self, x: &mut Exposition) {
        let metrics = &self.metrics;
        x.add(&m::ROUTER_BUILD_INFO, &["router", SERVER_VERSION], 1.0);
        x.add(&m::ROUTER_UPTIME, &[], self.shell.uptime_s());
        x.add(&m::ROUTER_REQUESTS, &[], &self.shell.requests);
        x.add(&m::ROUTER_FORWARDED, &[], &metrics.forwarded);
        x.add(&m::ROUTER_FORWARD_ERRORS, &[], &metrics.forward_errors);
        x.add(&m::ROUTER_NO_OWNER, &[], &metrics.no_owner);
        x.add(&m::ROUTER_SHED, &[], &self.shell.shed);
        for code in ErrorCode::ALL {
            x.add(
                &m::ROUTER_ERRORS,
                &[code.as_str()],
                metrics.errors.get(code) as f64,
            );
        }
        x.add(&m::ROUTER_HOP_LATENCY, &[], &metrics.hop_latency);
        for b in &self.backends {
            x.add(
                &m::BACKEND_HEALTHY,
                &[&b.addr],
                b.healthy.load(Ordering::SeqCst),
            );
        }
        for b in &self.backends {
            x.add(&m::BACKEND_FORWARDED, &[&b.addr], &b.forwarded);
        }
        for b in &self.backends {
            x.add(&m::BACKEND_FORWARD_ERRORS, &[&b.addr], &b.forward_errors);
        }
        for b in &self.backends {
            x.add(&m::BACKEND_HEALTH_FLIPS, &[&b.addr], &b.health_flips);
        }
        for b in &self.backends {
            x.add(&m::BACKEND_HOP_LATENCY, &[&b.addr], &b.hop_latency);
        }
    }

    fn background(&self) -> Option<Background<Self>> {
        Some(("health", health_loop))
    }
}

/// One `/readyz` probe. Uses a bare one-shot connection (not the forward
/// pool): health checking must not compete with traffic for pooled
/// connections, and a hung backend should cost the prober one short
/// timeout, not a retry dance.
fn probe_backend(addr: &str, timeout: Duration) -> bool {
    let Ok(mut client) = crate::client::HttpClient::connect(addr, timeout) else {
        return false;
    };
    matches!(client.request("GET", "/readyz", None), Ok((200, _)))
}

/// Polls every backend once and updates health flags.
fn health_pass(ctx: &RouterCtx) {
    let timeout = ctx.config.health_interval.max(Duration::from_millis(100));
    for backend in &ctx.backends {
        backend.set_healthy(probe_backend(&backend.addr, timeout));
    }
}

/// Background health thread: one pass per `health_interval`, sleeping in
/// short slices so shutdown stays responsive.
fn health_loop(ctx: &RouterCtx) {
    while !ctx.shell.stopping() {
        health_pass(ctx);
        let mut left = ctx.config.health_interval;
        while !left.is_zero() && !ctx.shell.stopping() {
            let slice = left.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// The headers every forwarded request carries: the request id (so one id
/// joins the router's and exactly one backend's access log) and the
/// remaining deadline budget (so the backend's clock starts where the
/// router's hop left off).
fn hop_headers(obs: &ObsCtx, deadline: &Deadline) -> Vec<(&'static str, String)> {
    let mut headers = vec![("x-request-id", obs.id.clone())];
    if let Some(remaining) = deadline.remaining() {
        headers.push((
            "x-deadline-ms",
            u64::try_from(remaining.as_millis())
                .unwrap_or(u64::MAX)
                .to_string(),
        ));
    }
    headers
}

/// Checks a pooled keep-alive client out of `backend` (or dials a fresh
/// jitter stream).
fn checkout(ctx: &RouterCtx, backend: &Backend) -> RetryingClient {
    if let Some(client) = backend.pool.lock().expect("client pool").pop() {
        return client;
    }
    let seed = ctx.seeds.fetch_add(1, Ordering::Relaxed);
    RetryingClient::new(
        backend.addr.clone(),
        ctx.config.read_timeout,
        HOP_RETRY,
        seed,
    )
}

fn checkin(backend: &Backend, client: RetryingClient) {
    let mut pool = backend.pool.lock().expect("client pool");
    if pool.len() < 64 {
        pool.push(client);
    }
}

/// Forwards one request to `backend`, recording the hop. `Ok` is the
/// backend's response verbatim (any status); `Err` is a transport failure
/// after in-hop retries — the caller should mark the backend down and
/// fail over.
fn forward_once(
    ctx: &RouterCtx,
    obs: &mut ObsCtx,
    backend: &Backend,
    deadline: &Deadline,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let headers = hop_headers(obs, deadline);
    let budget = deadline.remaining().unwrap_or(ctx.config.read_timeout);
    let mut client = checkout(ctx, backend);
    let t0 = Instant::now();
    let result = client.send(method, path, body, &headers, budget);
    let hop = t0.elapsed();
    obs.record(Stage::Forward, hop);
    ctx.metrics.hop_latency.observe(hop);
    backend.hop_latency.observe(hop);
    match result {
        Ok(resp) => {
            backend.forwarded.fetch_add(1, Ordering::Relaxed);
            ctx.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
            checkin(backend, client);
            let mut out = Response::json(resp.status, resp.body);
            out.retry_after = resp.retry_after;
            Ok(out)
        }
        Err(e) => {
            backend.forward_errors.fetch_add(1, Ordering::Relaxed);
            ctx.metrics.forward_errors.fetch_add(1, Ordering::Relaxed);
            // Fail fast: don't wait for the next health pass to stop
            // routing at a dead backend. /readyz recovery flips it back.
            backend.set_healthy(false);
            Err(e)
        }
    }
}

/// Forwards `tenant`'s request to its live owner, failing over along the
/// ring on transport errors. Exhausting every healthy backend (or having
/// none to start with) yields the 503 `overloaded` shape from the error
/// taxonomy — retryable, with a `Retry-After` hint.
fn forward_owned(
    ctx: &RouterCtx,
    obs: &mut ObsCtx,
    tenant: &str,
    deadline: &Deadline,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Reply {
    obs.tenant = Some(tenant.to_string());
    let alive = ctx.alive();
    for idx in ctx.ring.preference(tenant) {
        if !alive[idx] || ctx.shell.stopping() {
            continue;
        }
        deadline.check("the backend hop")?;
        let backend = &ctx.backends[idx];
        // Re-check: an earlier iteration may have marked it down.
        if !backend.healthy.load(Ordering::SeqCst) {
            continue;
        }
        if let Ok(response) = forward_once(ctx, obs, backend, deadline, method, path, body) {
            return Ok(response);
        }
    }
    ctx.metrics.no_owner.fetch_add(1, Ordering::Relaxed);
    Err(ServeError::overloaded(format!(
        "no healthy backend owns tenant '{tenant}' ({} configured, {} healthy)",
        ctx.backends.len(),
        ctx.healthy_count()
    )))
}

/// The request body as text; the router relays it without parsing.
fn utf8_body(req: &Request) -> Result<&str, ServeError> {
    std::str::from_utf8(&req.body).map_err(|_| ServeError::bad_request("body must be UTF-8 JSON"))
}

/// `POST /predict`: resolves the tenant (`?model=` query, else the JSON
/// body's `model` field, else `default`) and forwards to its owner.
fn predict_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let body = utf8_body(req)?;
    let tenant = match req.query_param("model") {
        Some(m) => m.to_string(),
        None => tenant_from_body(body).map_err(ServeError::bad_request)?,
    };
    forward_owned(
        ctx,
        obs,
        &tenant,
        &req.deadline,
        "POST",
        "/predict",
        Some(body),
    )
}

/// Extracts the routing tenant from a predict body: top-level `model`
/// string, defaulting to `default`. The router only needs the name — the
/// backend re-validates the full body.
fn tenant_from_body(body: &str) -> Result<String, String> {
    if body.trim().is_empty() {
        return Ok("default".into());
    }
    let v: Value = serde_json::from_str(body).map_err(|e| format!("body must be JSON: {e}"))?;
    match v.get("model") {
        Some(Value::Str(s)) => Ok(s.clone()),
        None => Ok("default".into()),
        Some(_) => Err("'model' must be a string".into()),
    }
}

/// Percent-encodes one query value (RFC 3986 unreserved bytes pass
/// through, everything else is `%XX`-escaped). The router routes on
/// *decoded* tenant names, so rebuilding a forwarded query string from
/// one must re-encode it — a raw space would split the request line and
/// a raw `&`/`%`/`#` would be re-parsed as query structure, silently
/// addressing the wrong tenant.
fn encode_query_value(s: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                out.push('%');
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out
}

/// `GET /model?name=`: forwards to the tenant's owner (query re-encoded
/// from the decoded name).
fn model_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let tenant = req.query_param("name").unwrap_or("default").to_string();
    let path = format!("/model?name={}", encode_query_value(&tenant));
    forward_owned(ctx, obs, &tenant, &req.deadline, "GET", &path, None)
}

/// `POST /sample`: stateless, so any healthy backend will do —
/// round-robin, with transport failover.
fn sample_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let body = utf8_body(req)?;
    let n = ctx.backends.len();
    let start = ctx.rr.fetch_add(1, Ordering::Relaxed) % n;
    for i in 0..n {
        let idx = (start + i) % n;
        let backend = &ctx.backends[idx];
        if !backend.healthy.load(Ordering::SeqCst) {
            continue;
        }
        if let Ok(response) = forward_once(
            ctx,
            obs,
            backend,
            &req.deadline,
            "POST",
            "/sample",
            Some(body),
        ) {
            return Ok(response);
        }
    }
    ctx.metrics.no_owner.fetch_add(1, Ordering::Relaxed);
    Err(ServeError::overloaded(
        "no healthy backend available for /sample",
    ))
}

/// `GET /models`: fans out to every healthy backend and reports each
/// shard's snapshot side by side (a shared-nothing cluster has no single
/// registry to merge).
fn models_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let mut shards = Vec::new();
    for backend in &ctx.backends {
        let reply = if backend.healthy.load(Ordering::SeqCst) {
            forward_once(ctx, obs, backend, &req.deadline, "GET", "/models", None).ok()
        } else {
            None
        };
        let models = reply.filter(|r| r.status == 200).map(|r| {
            let text = std::str::from_utf8(&r.body).ok();
            text.and_then(|s| serde_json::from_str(s).ok())
                .unwrap_or(Value::Null)
        });
        let mut fields = vec![
            ("backend", Value::Str(backend.addr.clone())),
            ("reachable", Value::Bool(models.is_some())),
        ];
        fields.extend(models.map(|m| ("models", m)));
        shards.push(obj(fields));
    }
    let body = obj(vec![("shards", Value::Arr(shards))]);
    Ok(Response::json(200, render(&body)))
}

/// `POST /models/{name}` and `DELETE /models/{name}`: replicated
/// publishes. Models are small relative to traffic, so every backend
/// stores every tenant — the ring decides who *serves* it warm, and a
/// failed-over tenant cold-loads on the successor instead of 404ing.
/// Publish succeeds only if **every configured** replica accepts: a
/// rejecting replica *or one that is down at publish time* yields the
/// retryable 503 `store_io` shape, so the client re-publishes until the
/// full replica set has the model (a down replica would otherwise rejoin
/// the ring with its old tenants but without models published during its
/// downtime, and failover would 404). Delete treats a 404 replica as
/// already-done.
///
/// `POST /models/{name}/rows` and `/models/{name}/rollback` replicate
/// through the same loop: online maintenance is deterministic (the same
/// append sequence re-granulates to the same cover on every replica), so
/// full-set fan-out keeps the shards' version chains converged. Unlike a
/// publish, an append is **not** idempotent — on a partial failure the
/// caller must reconcile (roll every replica back to a common version)
/// instead of blindly retrying; see `docs/CLUSTER.md`.
fn publish_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let rest = req.path.trim_start_matches("/models/");
    // Only POST carries maintenance actions; a DELETE with an action
    // suffix stays multi-segment and is rejected below.
    let name = if req.method == "POST" {
        rest.strip_suffix("/rows")
            .or_else(|| rest.strip_suffix("/rollback"))
            .unwrap_or(rest)
    } else {
        rest
    };
    check_model_name(name)?;
    obs.tenant = Some(name.to_string());
    let body = utf8_body(req)?;
    let body = (!body.is_empty()).then_some(body);
    let delete = req.method == "DELETE";
    let mut results = Vec::new();
    let mut replicas = 0u64;
    let mut failures = Vec::new();
    let mut skipped = Vec::new();
    for backend in &ctx.backends {
        if !backend.healthy.load(Ordering::SeqCst) {
            skipped.push(backend.addr.clone());
            continue;
        }
        let outcome = forward_once(
            ctx,
            obs,
            backend,
            &req.deadline,
            &req.method,
            &req.path,
            body,
        );
        let status = match &outcome {
            Ok(resp) => resp.status,
            Err(_) => 0,
        };
        let ok = match status {
            200 => true,
            404 if delete => true, // replica never had it: idempotent
            _ => false,
        };
        if ok {
            replicas += 1;
        } else {
            failures.push(format!("{} -> {}", backend.addr, status));
        }
        results.push(obj(vec![
            ("backend", Value::Str(backend.addr.clone())),
            ("status", Value::Num(f64::from(status))),
        ]));
    }
    if results.is_empty() {
        ctx.metrics.no_owner.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::overloaded(format!(
            "no healthy backend to replicate '{name}' to"
        )));
    }
    // A replica that was down at publish time is as incomplete as one
    // that rejected: it will rejoin the ring with its old tenants but
    // without this model, and failover to it would 404. Surface both as
    // the retryable store_io 503 so the client re-publishes until the
    // full configured replica set has the model.
    if !failures.is_empty() || !skipped.is_empty() {
        let mut detail = failures;
        detail.extend(skipped.into_iter().map(|addr| format!("{addr} -> down")));
        return Err(ServeError::store_io(format!(
            "replication incomplete for '{name}' ({replicas}/{} replicas): {}",
            ctx.backends.len(),
            detail.join(", ")
        )));
    }
    let verb = if delete {
        "deleted"
    } else if name != rest && rest.ends_with("/rows") {
        "appended"
    } else if name != rest {
        "rolled_back"
    } else {
        "published"
    };
    Ok(Response::json(
        200,
        render(&obj(vec![
            (verb, Value::Str(name.to_string())),
            ("replicas", Value::Num(replicas as f64)),
            ("results", Value::Arr(results)),
        ])),
    ))
}

/// `GET /models/{name}[?version=N]`: version-chain metadata, forwarded to
/// the tenant's owner shard (replication keeps the chains converged, so
/// the owner's answer stands for the cluster).
fn version_endpoint(ctx: &RouterCtx, req: &Request, obs: &mut ObsCtx) -> Reply {
    let name = req.path.trim_start_matches("/models/");
    check_model_name(name)?;
    let path = match req.query_param("version") {
        Some(raw) => {
            let v = raw
                .parse::<u64>()
                .map_err(|_| ServeError::bad_request("'version' must be a non-negative integer"))?;
            format!("{}?version={v}", req.path)
        }
        None => req.path.clone(),
    };
    forward_owned(ctx, obs, name, &req.deadline, "GET", &path, None)
}

fn check_model_name(name: &str) -> Result<(), ServeError> {
    if name.is_empty() || name.contains('/') {
        return Err(ServeError::bad_request(
            "model name must be a single path segment",
        ));
    }
    Ok(())
}

/// Build-info fields of the router's `/healthz` and `/readyz`.
fn build_info_fields() -> Vec<(&'static str, Value)> {
    vec![
        ("role", Value::Str("router".into())),
        ("version", Value::Str(SERVER_VERSION.into())),
    ]
}

/// `GET /healthz`: router liveness plus the backend health tally.
fn healthz_endpoint(ctx: &RouterCtx, _: &Request, _: &mut ObsCtx) -> Reply {
    let mut fields = vec![
        ("status", Value::Str("ok".into())),
        ("backends", Value::Num(ctx.backends.len() as f64)),
        ("healthy_backends", Value::Num(ctx.healthy_count() as f64)),
        ("uptime_s", Value::Num(ctx.shell.uptime_s())),
    ];
    fields.extend(build_info_fields());
    Ok(Response::json(200, render(&obj(fields))))
}

/// `GET /readyz`: ready iff at least one backend is healthy (a router
/// with zero live shards can only shed).
fn readyz_endpoint(ctx: &RouterCtx, _: &Request, _: &mut ObsCtx) -> Reply {
    let healthy = ctx.healthy_count();
    let ready = healthy > 0 && !ctx.shell.stopping();
    let mut fields = vec![
        ("ready", Value::Bool(ready)),
        ("backends", Value::Num(ctx.backends.len() as f64)),
        ("healthy_backends", Value::Num(healthy as f64)),
        ("uptime_s", Value::Num(ctx.shell.uptime_s())),
    ];
    fields.extend(build_info_fields());
    let status = if ready { 200 } else { 503 };
    Ok(Response::json(status, render(&obj(fields))))
}

/// `GET /cluster`: the ring topology — per-backend health and counters;
/// with `?tenant=NAME`, that tenant's owner and full failover order.
fn cluster_endpoint(ctx: &RouterCtx, req: &Request, _: &mut ObsCtx) -> Reply {
    let alive = ctx.alive();
    let backends = ctx
        .backends
        .iter()
        .enumerate()
        .map(|(i, b)| {
            obj(vec![
                ("addr", Value::Str(b.addr.clone())),
                ("healthy", Value::Bool(alive[i])),
                (
                    "forwarded",
                    Value::Num(b.forwarded.load(Ordering::Relaxed) as f64),
                ),
                (
                    "forward_errors",
                    Value::Num(b.forward_errors.load(Ordering::Relaxed) as f64),
                ),
                (
                    "health_flips",
                    Value::Num(b.health_flips.load(Ordering::Relaxed) as f64),
                ),
            ])
        })
        .collect::<Vec<_>>();
    let mut fields = vec![
        ("backends", Value::Arr(backends)),
        (
            "vnodes",
            Value::Num(ctx.config.vnodes.clamp(1, MAX_VNODES) as f64),
        ),
    ];
    let tenant_lookup;
    if let Some(tenant) = req.query_param("tenant") {
        let order = ctx.ring.preference(tenant);
        let owner = ctx.ring.first_alive(tenant, &alive);
        tenant_lookup = obj(vec![
            ("name", Value::Str(tenant.to_string())),
            (
                "owner",
                owner.map_or(Value::Null, |i| Value::Str(ctx.backends[i].addr.clone())),
            ),
            (
                "preference",
                Value::Arr(
                    order
                        .into_iter()
                        .map(|i| Value::Str(ctx.backends[i].addr.clone()))
                        .collect(),
                ),
            ),
        ]);
        fields.push(("tenant", tenant_lookup));
    }
    Ok(Response::json(200, render(&obj(fields))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:8080")).collect()
    }

    fn tenants(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("tenant-{i}")).collect()
    }

    #[test]
    fn ring_is_deterministic_across_rebuilds() {
        let backends = addrs(4);
        let a = HashRing::build(&backends, 64);
        let b = HashRing::build(&backends, 64);
        for t in tenants(500) {
            assert_eq!(a.owner(&t), b.owner(&t), "{t}");
            assert_eq!(a.preference(&t), b.preference(&t), "{t}");
        }
    }

    #[test]
    fn ring_spreads_tenants_over_backends() {
        let ring = HashRing::build(&addrs(4), 64);
        let mut counts = [0usize; 4];
        for t in tenants(1000) {
            counts[ring.owner(&t).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 100,
                "backend {i} owns only {c}/1000 tenants: {counts:?}"
            );
        }
    }

    /// The consistent-hashing contract, exactly: removing one of N
    /// backends remaps **only** the tenants it owned (everything else
    /// keeps its shard), and adding a backend moves tenants **only onto**
    /// the new backend. Counts stay near T/N.
    #[test]
    fn membership_change_remaps_only_the_moved_share() {
        let n = 4;
        let t = 1000;
        let all = addrs(n);
        let full = HashRing::build(&all, 64);

        // Remove the last backend; indices 0..n-1 are unchanged in both
        // rings, so owners are directly comparable.
        let without = HashRing::build(&all[..n - 1], 64);
        let mut moved = 0;
        for tenant in tenants(t) {
            let before = full.owner(&tenant).unwrap();
            let after = without.owner(&tenant).unwrap();
            if before == n - 1 {
                moved += 1;
            } else {
                assert_eq!(before, after, "{tenant} moved without cause");
            }
        }
        let slack = t / 8; // 64 vnodes bound the per-backend imbalance
        assert!(
            moved <= t.div_ceil(n) + slack,
            "removal remapped {moved} of {t} tenants (bound {})",
            t.div_ceil(n) + slack
        );
        assert!(moved > 0, "removed backend owned nothing");

        // Add a fifth backend: every remap must land on it.
        let mut grown = all.clone();
        grown.push("10.0.0.9:8080".into());
        let bigger = HashRing::build(&grown, 64);
        let mut joined = 0;
        for tenant in tenants(t) {
            let before = full.owner(&tenant).unwrap();
            let after = bigger.owner(&tenant).unwrap();
            if before != after {
                assert_eq!(after, n, "{tenant} moved to an old backend");
                joined += 1;
            }
        }
        assert!(
            joined <= t.div_ceil(n + 1) + slack,
            "join remapped {joined} of {t} tenants (bound {})",
            t.div_ceil(n + 1) + slack
        );
        assert!(joined > 0, "new backend attracted nothing");
    }

    #[test]
    fn first_alive_skips_dead_backends_in_ring_order() {
        let ring = HashRing::build(&addrs(3), 64);
        for tenant in tenants(100) {
            let order = ring.preference(&tenant);
            assert_eq!(order.len(), 3);
            let owner = order[0];
            // All alive: first_alive is the owner.
            assert_eq!(ring.first_alive(&tenant, &[true, true, true]), Some(owner));
            // Owner dead: next in preference takes over.
            let mut alive = [true, true, true];
            alive[owner] = false;
            assert_eq!(ring.first_alive(&tenant, &alive), Some(order[1]));
            // All dead: nobody.
            assert_eq!(ring.first_alive(&tenant, &[false, false, false]), None);
        }
    }

    #[test]
    fn preference_lists_every_backend_once() {
        let ring = HashRing::build(&addrs(5), 16);
        for tenant in tenants(50) {
            let mut order = ring.preference(&tenant);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4], "{tenant}");
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::build(&[], 64);
        assert_eq!(ring.owner("x"), None);
        assert_eq!(ring.first_alive("x", &[]), None);
    }

    #[test]
    fn bind_rejects_empty_backend_list() {
        match Router::bind(RouterConfig::default()) {
            Ok(_) => panic!("bind accepted an empty backend list"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        }
    }

    #[test]
    fn query_values_are_percent_encoded_on_the_hop() {
        assert_eq!(encode_query_value("plain-Name_0.~"), "plain-Name_0.~");
        assert_eq!(encode_query_value("a b"), "a%20b");
        assert_eq!(encode_query_value("a&b=c"), "a%26b%3Dc");
        assert_eq!(encode_query_value("50%"), "50%25");
        assert_eq!(encode_query_value("x#y"), "x%23y");
        assert_eq!(encode_query_value("naïve"), "na%C3%AFve");
    }

    #[test]
    fn tenant_extraction_from_predict_body() {
        assert_eq!(
            tenant_from_body("{\"rows\":[[1,2]],\"model\":\"t-7\"}").unwrap(),
            "t-7"
        );
        assert_eq!(tenant_from_body("{\"rows\":[[1,2]]}").unwrap(), "default");
        assert_eq!(tenant_from_body("").unwrap(), "default");
        assert!(tenant_from_body("{\"model\":3}").is_err());
        assert!(tenant_from_body("not json").is_err());
    }
}
