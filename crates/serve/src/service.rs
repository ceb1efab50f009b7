//! The one request path `gbabs serve` and `gbabs router` both run.
//!
//! A process is a [`Service`]: a route table, its error counting, its
//! metric families, and at most one extra thread. Everything around that
//! is this shell:
//!
//! * the listener and an accept thread with the **admission gate**: once
//!   `backlog` connections wait for a worker, a new one is shed with a
//!   `503` (after a bounded peek at its head, so the 503 still echoes the
//!   client's `X-Request-Id` and the access log gets the real path);
//! * a fixed pool of workers, each owning one keep-alive connection until
//!   the peer closes, idles out, or the process stops;
//! * the request **deadline** on every socket read (in short slices, so a
//!   slow client gets a 408 within its budget) and write;
//! * the access log and the `/debug/requests` ring every finished request
//!   lands in, and `GET /metrics` in both formats;
//! * the `405`/`404` answers for paths outside the route table.

use crate::deadline::Deadline;
use crate::errors::{ErrorCode, ServeError};
use crate::http::{peek_head, read_request, HttpError, Request, Response};
use crate::metrics::{Exposition, Family};
use gb_obs::{gen_request_id, AccessLog, DebugRing, RequestCtx as ObsCtx, RequestRecord, Stage};
use serde::Value;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the `/debug/requests` ring: how many slowest and how many
/// most recent errored requests are kept.
const DEBUG_RING: usize = 64;

/// How many shed connections may hold a peek thread at once; beyond this
/// the 503 is written blind from the accept thread, so a connection flood
/// cannot become a thread flood.
const MAX_SHED_PEEKS: usize = 32;

/// Budget for peeking a shed connection's request head.
const SHED_PEEK_BUDGET: Duration = Duration::from_millis(150);

/// Idle-poll granularity: how quickly a worker parked on a keep-alive
/// connection notices shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Socket-timeout slice for reads of an in-flight request: each tick
/// re-checks the request deadline, so a stalling client is bounded by the
/// budget (408) instead of pinning a worker for the full socket timeout
/// per byte.
const READ_SLICE: Duration = Duration::from_millis(50);

/// The connection limits both configs carry.
pub(crate) struct Limits {
    pub workers: usize,
    pub backlog: usize,
    pub read_timeout: Duration,
    pub request_timeout: Duration,
    pub max_body_bytes: usize,
}

/// What a handler returns: its response, or the error the shell counts
/// and renders.
pub(crate) type Reply = Result<Response, ServeError>;

/// One route. `path` is an exact path, or `prefix*suffix`: any path that
/// starts with `prefix` and whose rest ends with `suffix`.
pub(crate) struct Route<S> {
    pub method: &'static str,
    pub path: &'static str,
    pub handler: fn(&S, &Request, &mut ObsCtx) -> Reply,
}

impl<S> Route<S> {
    pub(crate) const fn new(
        method: &'static str,
        path: &'static str,
        handler: fn(&S, &Request, &mut ObsCtx) -> Reply,
    ) -> Self {
        Self {
            method,
            path,
            handler,
        }
    }

    fn matches(&self, path: &str) -> bool {
        match self.path.split_once('*') {
            Some((prefix, suffix)) => path
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.ends_with(suffix)),
            None => path == self.path,
        }
    }
}

/// What a process supplies to the shell.
pub(crate) trait Service: Send + Sync + Sized + 'static {
    /// `server` or `router`: names the threads and the shed message.
    const NAME: &'static str;
    /// Routes besides `GET /metrics` and `GET /debug/requests`, tried in
    /// order.
    const ROUTES: &'static [Route<Self>];
    /// The families `GET /metrics` renders, in order.
    const FAMILIES: &'static [&'static Family];

    /// The shell state this process owns.
    fn shell(&self) -> &Shell;

    /// Counts one error response, the shell's and the handlers' alike.
    /// `tenant` is set once a request resolved one.
    fn count_error(&self, tenant: Option<&str>, code: ErrorCode);

    /// Adds a sample of every family in [`Service::FAMILIES`].
    fn observe(&self, out: &mut Exposition);

    /// One extra thread started with the shell.
    fn background(&self) -> Option<Background<Self>> {
        None
    }
}

/// The `(path, request id)` a bounded peek at a shed request found.
type PeekedHead = (Option<String>, Option<String>);

/// An extra thread's name and body.
pub(crate) type Background<S> = (&'static str, fn(&S));

/// Shell state, held by each process next to its own.
pub(crate) struct Shell {
    pub limits: Limits,
    access_log: Option<AccessLog>,
    ring: DebugRing,
    shed_peeks: AtomicUsize,
    /// Requests read off a connection.
    pub requests: AtomicU64,
    /// Connections shed at the accept gate.
    pub shed: AtomicU64,
    started: Instant,
    stop: AtomicBool,
}

impl Shell {
    /// Opens the access log (a file path, or `stderr`/`-`), if any.
    pub(crate) fn new(limits: Limits, access_log: Option<&str>) -> std::io::Result<Self> {
        Ok(Self {
            limits,
            access_log: access_log.map(AccessLog::open).transpose()?,
            ring: DebugRing::new(DEBUG_RING),
            shed_peeks: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        })
    }

    pub(crate) fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// True once shutdown began.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Collapses a finished request into its record, feeding the debug
    /// ring and the access log.
    fn finish_request(&self, obs: ObsCtx, status: u16, deadline: &Deadline) {
        let remaining_ms = deadline
            .remaining()
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let rec = obs.finish(status, remaining_ms);
        self.ring.insert(&rec);
        if let Some(log) = &self.access_log {
            log.log(rec.to_json());
        }
    }
}

/// A bound, not yet serving, process.
pub(crate) struct Bound<S> {
    listener: TcpListener,
    svc: Arc<S>,
}

/// A running process: the accept thread, the workers and the extra
/// thread.
pub(crate) struct Running<S: Service> {
    addr: SocketAddr,
    svc: Arc<S>,
    threads: Vec<JoinHandle<()>>,
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

impl<S: Service> Bound<S> {
    pub(crate) fn bind(addr: &str, svc: S) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            svc: Arc::new(svc),
        })
    }

    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub(crate) fn service(&self) -> &S {
        &self.svc
    }

    /// Spawns the workers, the extra thread and the accept loop.
    pub(crate) fn start(self) -> std::io::Result<Running<S>> {
        let Self { listener, svc } = self;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for i in 0..svc.shell().limits.workers.max(1) {
            let (svc, rx, queued) = (Arc::clone(&svc), Arc::clone(&rx), Arc::clone(&queued));
            threads.push(spawn(format!("gb-{}-worker-{i}", S::NAME), move || loop {
                // Bind before matching: a match scrutinee's MutexGuard
                // lives to the end of the match, which would hold the
                // queue lock across the connection and serialize the pool.
                let conn = rx.lock().expect("worker queue").recv();
                let Ok(stream) = conn else { return }; // accept loop gone
                queued.fetch_sub(1, Ordering::SeqCst);
                serve_connection(&*svc, stream);
            })?);
        }
        if let Some((name, body)) = svc.background() {
            let svc = Arc::clone(&svc);
            threads.push(spawn(format!("gb-{}-{name}", S::NAME), move || body(&svc))?);
        }
        let accept = Arc::clone(&svc);
        threads.push(spawn(format!("gb-{}-accept", S::NAME), move || {
            for stream in listener.incoming() {
                if accept.shell().stopping() {
                    return; // tx drops; workers drain and exit
                }
                let Ok(stream) = stream else { continue };
                if queued.fetch_add(1, Ordering::SeqCst) >= accept.shell().limits.backlog {
                    queued.fetch_sub(1, Ordering::SeqCst);
                    shed(&accept, stream);
                    continue;
                }
                if tx.send(stream).is_err() {
                    return;
                }
            }
        })?);
        Ok(Running { addr, svc, threads })
    }
}

impl<S: Service> Running<S> {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks for the process's lifetime.
    pub(crate) fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Stops accepting, drains the workers, joins every thread, and
    /// flushes the access log, so every request served before this
    /// returns is on disk.
    pub(crate) fn stop(self) {
        let shell = self.svc.shell();
        shell.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(log) = &shell.access_log {
            log.flush();
        }
    }
}

/// Sheds a connection at the accept gate with a 503. While the thread
/// budget allows, a short-lived thread peeks the request head first;
/// under a flood the 503 is written blind from the accept thread, which
/// never blocks on a read.
fn shed<S: Service>(svc: &Arc<S>, stream: TcpStream) {
    let shell = svc.shell();
    shell.shed.fetch_add(1, Ordering::Relaxed);
    svc.count_error(None, ErrorCode::Overloaded);
    if shell.shed_peeks.fetch_add(1, Ordering::SeqCst) < MAX_SHED_PEEKS {
        let peeker = Arc::clone(svc);
        let spawned = spawn(format!("gb-{}-shed", S::NAME), move || {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let deadline = Deadline::after(SHED_PEEK_BUDGET);
            let head = peek_head(&mut BufReader::new(&stream), &deadline);
            write_shed(&*peeker, stream, head);
            peeker.shell().shed_peeks.fetch_sub(1, Ordering::SeqCst);
        });
        // A failed spawn dropped the stream with the closure.
        if spawned.is_err() {
            shell.shed_peeks.fetch_sub(1, Ordering::SeqCst);
        }
        return;
    }
    shell.shed_peeks.fetch_sub(1, Ordering::SeqCst);
    write_shed(&**svc, stream, (None, None));
}

/// Writes the shed 503 and records it under the peeked `(path, id)`, when
/// the peek found them.
fn write_shed<S: Service>(svc: &S, mut stream: TcpStream, (path, id): PeekedHead) {
    let mut obs = ObsCtx::new(
        id.unwrap_or_else(gen_request_id),
        path.unwrap_or_else(|| "(shed)".into()),
    );
    obs.code = Some(ErrorCode::Overloaded.as_str());
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let t0 = Instant::now();
    let _ = ServeError::overloaded(format!("{} overloaded; retry later", S::NAME))
        .to_response_with_id(&obs.id)
        .write_to(&mut stream, true);
    obs.record(Stage::Serialize, t0.elapsed());
    svc.shell().finish_request(obs, 503, &Deadline::unbounded());
}

/// One worker serving one keep-alive connection to completion.
fn serve_connection<S: Service>(svc: &S, stream: TcpStream) {
    let shell = svc.shell();
    let limits = &shell.limits;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut idle_deadline = Instant::now() + limits.read_timeout;
    loop {
        if shell.stopping() {
            return;
        }
        // Wait for the next request's first byte in short slices so both
        // shutdown and the idle reaper stay responsive.
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
        // The first byte arrived: arm the request deadline. With deadlines
        // on, reads use short slices so the budget is polled; with
        // `request_timeout = 0` one socket timeout covers the whole read.
        let deadline = Deadline::after(limits.request_timeout);
        let slice = if deadline.remaining().is_some() {
            READ_SLICE
        } else {
            limits.read_timeout
        };
        let _ = stream.set_read_timeout(Some(slice));
        let (mut obs, response, deadline, close) =
            match read_request(&mut reader, limits.max_body_bytes, deadline) {
                Ok(req) => {
                    shell.requests.fetch_add(1, Ordering::Relaxed);
                    // The write timeout follows the remaining budget; a
                    // floor keeps error responses deliverable after it
                    // lapsed, and an unbounded deadline falls back to
                    // `read_timeout` so a dead peer cannot pin the worker.
                    let budget = req
                        .deadline
                        .remaining()
                        .unwrap_or(limits.read_timeout)
                        .max(Duration::from_millis(250));
                    let _ = stream.set_write_timeout(Some(budget));
                    let mut obs = ObsCtx::new(
                        req.request_id.clone().unwrap_or_else(gen_request_id),
                        req.path.clone(),
                    );
                    let mut response = route(svc, &req, &mut obs);
                    // Every response echoes the id.
                    response.request_id = Some(obs.id.clone());
                    (obs, response, req.deadline, req.close)
                }
                Err(HttpError::ConnectionClosed | HttpError::Io(_)) => return,
                Err(e) => {
                    let err = match e {
                        HttpError::Timeout => ServeError::request_timeout(e.to_string()),
                        HttpError::TooLarge(_) => {
                            ServeError::new(ErrorCode::PayloadTooLarge, e.to_string())
                        }
                        _ => ServeError::bad_request(e.to_string()),
                    };
                    // The request never parsed, so no client id is known;
                    // the failure still gets a record under a generated id.
                    let mut obs = ObsCtx::new(gen_request_id(), "(read)");
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let response = err_response(svc, &mut obs, err);
                    (obs, response, Deadline::unbounded(), true)
                }
            };
        let t0 = Instant::now();
        let written = response.write_to(&mut &stream, close);
        obs.record(Stage::Serialize, t0.elapsed());
        shell.finish_request(obs, response.status, &deadline);
        if written.is_err() || close {
            return;
        }
        idle_deadline = Instant::now() + limits.read_timeout;
    }
}

/// Dispatches one parsed request: the first route matching method and
/// path answers; a path some route knows gets a 405, any other a 404.
fn route<S: Service>(svc: &S, req: &Request, obs: &mut ObsCtx) -> Response {
    let shell_routes = [
        Route::new("GET", "/metrics", metrics_endpoint),
        Route::new("GET", "/debug/requests", debug_requests_endpoint),
    ];
    let mut routes = shell_routes.iter().chain(S::ROUTES);
    if let Some(r) = routes
        .clone()
        .find(|r| r.method == req.method && r.matches(&req.path))
    {
        let reply = (r.handler)(svc, req, obs);
        return reply.unwrap_or_else(|err| err_response(svc, obs, err));
    }
    let err = if routes.any(|r| r.matches(&req.path)) {
        ServeError::new(
            ErrorCode::MethodNotAllowed,
            format!("method {} not allowed here", req.method),
        )
    } else {
        ServeError::not_found(format!("no route for {}", req.path))
    };
    err_response(svc, obs, err)
}

/// Counts and renders one classified error: every non-200 response a
/// process originates leaves through here. The body and the
/// `X-Request-Id` header both carry the request id.
fn err_response<S: Service>(svc: &S, obs: &mut ObsCtx, err: ServeError) -> Response {
    svc.count_error(obs.tenant.as_deref(), err.code);
    obs.code = Some(err.code.as_str());
    err.to_response_with_id(&obs.id)
}

/// `GET /metrics`: every declared family, as JSON or, with
/// `?format=prometheus`, as Prometheus text.
fn metrics_endpoint<S: Service>(svc: &S, req: &Request, _: &mut ObsCtx) -> Reply {
    let prometheus = req.query_param("format") == Some("prometheus");
    let mut out = Exposition::new(S::FAMILIES, prometheus);
    svc.observe(&mut out);
    Ok(out.finish())
}

/// `GET /debug/requests`: the N slowest and N most recent errored
/// requests, each with its full stage breakdown.
fn debug_requests_endpoint<S: Service>(svc: &S, _: &Request, _: &mut ObsCtx) -> Reply {
    let ring = &svc.shell().ring;
    let (slowest, errored) = ring.snapshot();
    let join = |records: &[RequestRecord]| {
        let items: Vec<String> = records.iter().map(RequestRecord::to_json).collect();
        format!("[{}]", items.join(","))
    };
    let body = format!(
        "{{\"capacity\":{},\"slowest\":{},\"errored\":{}}}",
        ring.capacity(),
        join(&slowest),
        join(&errored)
    );
    Ok(Response::json(200, body))
}

/// Renders a JSON value to a response body.
pub(crate) fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".into())
}

/// A JSON object from `(key, value)` pairs, in order.
pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
