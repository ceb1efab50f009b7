//! Serving workloads: a `gbabs serve` process (flags at their defaults,
//! apart from a fresh port and `--model-dir` per boot) driven over HTTP by
//! at most two client threads of this process.
//!
//! * `serve-predict`: a closed loop on one keep-alive connection sending
//!   single-row `/predict` requests drawn from the held-out rows. (Two
//!   connections fell in and out of phase with the batcher's linger for
//!   minutes at a time, and the median moved between 0.4 and 0.72 ms from
//!   one set of runs to the next; one connection always waits it out.)
//! * `serve-ingest`: one open-loop writer appending fixed-size batches to a
//!   seeded tenant on a fixed schedule, beside one closed-loop `/predict`
//!   connection on `default`.
//!
//! The `/predict` loop alternates one-second slices against the program
//! with half-second slices against the reference server (`refserver.rs`),
//! and the boots follow the reference job (`reference.rs`): both set the
//! host-normalised figures.

use crate::http::{Conn, Reply};
use crate::layers::{self, ms};
use crate::refserver::RefServer;
use crate::report::{note, Outcome};
use crate::stats::{median, quantile};
use crate::{inputs, proc, reference, Ctx};
use gb_dataset::io::{read_csv, write_csv, CsvOptions};
use gb_dataset::{Dataset, GranulationBackend};
use gbabs::{GbKnn, MaintainedModel};
use serde::Value;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Predict,
    Ingest,
}

/// Boots per run; `setup_s` is the median of their host-normalised times
/// and the last one serves the load.
const BOOTS: usize = 5;
/// The reference job's query stride on the training CSV, and its nominal
/// time there: the scale of the host-normalised set-up time.
const REFERENCE_STRIDE: usize = 10;
const REFERENCE_S: f64 = 0.145;
/// Discarded closed-loop warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Each measured slice: this long against the program, then this long
/// against the reference server.
const SLICE: Duration = Duration::from_secs(1);
const REFERENCE_SLICE: Duration = Duration::from_millis(500);
/// Requests a slice needs on both servers to count.
const MIN_SLICE_REQUESTS: usize = 50;
/// The reference server's nominal `/predict` p50: the scale of the
/// host-normalised `p50_ms`.
const REFERENCE_P50_MS: f64 = 0.6;
/// The seed the server granulates with (`gbabs serve`'s default).
const SERVE_SEED: u64 = 42;
/// serve-ingest: the tenant, its seed size, and the writer's batches.
const TENANT: &str = "ingest";
const SEED_ROWS: usize = 1_000;
const BATCH_ROWS: usize = 2;
const APPEND_EVERY: Duration = Duration::from_millis(100);
const S8_CLASSES: usize = 7;

/// Everything generated and computed before any timing starts.
struct Fixture {
    train_csv: PathBuf,
    /// The training set as the server reads it back.
    train: Dataset,
    queries: Dataset,
    /// One `/predict` body per query row.
    bodies: Vec<Vec<u8>>,
    /// In-process `GbKnn::predict_batch` answer per query row.
    expected: Vec<u32>,
    /// serve-ingest: the tenant's seed rows and the appended batches.
    seed_rows: Dataset,
    seed_body: Vec<u8>,
    batches: Vec<Batch>,
    /// Layer timings taken while building the fixture.
    read_csv_ms: f64,
    granulated: layers::Granulated,
}

/// One append: its rows, and the request body that carries them.
struct Batch {
    rows: Dataset,
    body: Vec<u8>,
}

fn row_json(out: &mut String, row: &[f64]) {
    out.push('[');
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn rows_body(data: &Dataset, extra: &str) -> Vec<u8> {
    let mut s = String::from("{\"rows\":[");
    for r in 0..data.n_samples() {
        if r > 0 {
            s.push(',');
        }
        row_json(&mut s, data.row(r));
    }
    s.push_str("],\"labels\":[");
    for r in 0..data.n_samples() {
        if r > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", data.label(r));
    }
    let _ = write!(s, "]{extra}}}");
    s.into_bytes()
}

impl Fixture {
    fn new(ctx: &Ctx, mode: Mode, appends: usize) -> Result<Fixture, String> {
        let seed = ctx.args.seed;
        let population = inputs::dry_bean_population();
        let bean = inputs::dry_bean(&population, seed);
        let train_csv = ctx.work.join("train.csv");
        write_csv(&bean.train, &train_csv).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let train = read_csv(&train_csv, &CsvOptions::default()).map_err(|e| e.to_string())?;
        let read_csv_ms = ms(start);
        let granulated = layers::granulate(&train, SERVE_SEED);
        let knn = GbKnn::from_model(&granulated.model, train.n_classes(), 1);
        let queries = bean.queries;
        let p = queries.n_features();
        let expected = knn.predict_batch(queries.features(), p);
        let bodies = (0..queries.n_samples())
            .map(|r| {
                let mut s = String::from("{\"rows\":[");
                row_json(&mut s, queries.row(r));
                s.push_str("]}");
                s.into_bytes()
            })
            .collect();
        let (mut seed_body, mut batches) = (Vec::new(), Vec::new());
        let mut seed_rows = Dataset::from_parts(Vec::new(), Vec::new(), p, S8_CLASSES);
        if mode == Mode::Ingest {
            let (founding, later) =
                inputs::ingest_rows(&population, seed, SEED_ROWS, appends * BATCH_ROWS);
            seed_rows = founding;
            seed_body = rows_body(&seed_rows, &format!(",\"n_classes\":{S8_CLASSES}"));
            for b in 0..appends {
                let lo = b * BATCH_ROWS;
                let batch = later.select(&(lo..lo + BATCH_ROWS).collect::<Vec<_>>());
                let body = rows_body(&batch, "");
                batches.push(Batch { rows: batch, body });
            }
        }
        Ok(Fixture {
            train_csv,
            train,
            queries,
            bodies,
            expected,
            seed_rows,
            seed_body,
            batches,
            read_csv_ms,
            granulated,
        })
    }
}

/// Boots a server (plus, for serve-ingest, the seeding append) and
/// returns it with its set-up time.
fn boot(
    ctx: &Ctx,
    fx: &Fixture,
    mode: Mode,
    n: usize,
    access_log: bool,
    out: &mut Outcome,
) -> Result<(proc::Server, f64, Option<PathBuf>), String> {
    let dir = ctx.work.join(format!("boot{n}"));
    let models = dir.join("models");
    std::fs::create_dir_all(&models).map_err(|e| e.to_string())?;
    let log = access_log.then(|| dir.join("access.log"));
    let start = Instant::now();
    let server = proc::Server::boot(
        &ctx.gbabs,
        &fx.train_csv,
        &models,
        log.as_deref(),
        &dir.join("server"),
    )
    .map_err(|e| e.to_string())?;
    if mode == Mode::Ingest {
        let path = format!("/models/{TENANT}/rows");
        let ack = Conn::connect(server.addr)
            .and_then(|mut c| c.call("POST", &path, &fx.seed_body))
            .map_err(|e| format!("seeding append: {e}"))?;
        let ok = ack.status == 200 && num(&ack.json(), &["n_rows"]) == SEED_ROWS as f64;
        out.check(ok);
        if !ok {
            return Err(format!(
                "seeding append answered {}: {}",
                ack.status,
                String::from_utf8_lossy(&ack.body)
            ));
        }
    }
    Ok((server, start.elapsed().as_secs_f64(), log))
}

/// A numeric field at `path` of a JSON value (NaN when absent).
fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    match cur {
        Value::Num(n) => *n,
        Value::Bool(b) => f64::from(u8::from(*b)),
        _ => f64::NAN,
    }
}

/// The single prediction of a `/predict` answer.
fn prediction(reply: &Reply) -> Option<u32> {
    let text = std::str::from_utf8(&reply.body).ok()?;
    let rest = &text[text.find("\"predictions\":[")? + 15..];
    let n: f64 = rest[..rest.find(']')?].trim().parse().ok()?;
    Some(n as u32)
}

/// What one closed loop of `/predict` requests did.
#[derive(Default)]
struct Loop {
    /// Checked requests, and those that failed their check.
    attempted: u64,
    failed: u64,
    /// Latency of each answered request, in µs.
    latencies_us: Vec<f64>,
    /// How long the loop ran, in seconds.
    ran_s: f64,
}

/// A closed loop of `/predict` requests on one keep-alive connection,
/// cycling through the query rows from `next`, until `stop` returns true.
/// With `check`, every answer is checked against the in-process
/// prediction (the reference server's answers are not predictions).
fn predict_loop(
    addr: SocketAddr,
    fx: &Fixture,
    next: &mut usize,
    check: bool,
    stop: &(dyn Fn() -> bool + Sync),
) -> Loop {
    let start = Instant::now();
    let mut lp = Loop::default();
    let mut conn = Conn::connect(addr).ok();
    while !stop() {
        let q = *next % fx.bodies.len();
        *next += 1;
        let sent = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.call("POST", "/predict", &fx.bodies[q]),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        let ok = match &reply {
            Ok(r) => {
                lp.latencies_us.push(latency_us);
                r.status == 200 && (!check || prediction(r) == Some(fx.expected[q]))
            }
            Err(_) => {
                conn = Conn::connect(addr).ok();
                false
            }
        };
        if check {
            lp.attempted += 1;
            lp.failed += u64::from(!ok);
        }
    }
    lp.ran_s = start.elapsed().as_secs_f64();
    lp
}

/// One measured slice: a second of `/predict` against the program, then
/// half a second against the reference server.
struct Slice {
    program: Loop,
    reference: Loop,
}

fn measure_slice(
    addr: SocketAddr,
    reference: SocketAddr,
    fx: &Fixture,
    next: &mut usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> Slice {
    let end = Instant::now() + SLICE;
    let program = predict_loop(addr, fx, next, true, &|| Instant::now() >= end || stop());
    let end = Instant::now() + REFERENCE_SLICE;
    let reference = predict_loop(reference, fx, next, false, &|| Instant::now() >= end);
    Slice { program, reference }
}

/// One append of the open-loop writer, timed from when it was due.
struct Append {
    latency_ms: f64,
    lag_ms: f64,
    ack: Value,
}

/// What one driven server phase produced.
struct Phase {
    /// The measured slices (warm-up excluded).
    slices: Vec<Slice>,
    /// `/predict` requests sent during the warm-up.
    warmup_requests: u64,
    appends: Vec<Append>,
    metrics_before: Value,
    metrics_after: Value,
}

fn scrape(addr: SocketAddr) -> Value {
    Conn::connect(addr)
        .and_then(|mut c| c.call("GET", "/metrics", b""))
        .map_or(Value::Null, |r| r.json())
}

/// Warm-up, then the measured window: `seconds` slices of the `/predict`
/// loop alone (serve-predict), or slices beside the writer's fixed
/// schedule until it is done (serve-ingest). A reference server runs for
/// the phase and gets its half of every slice.
fn drive(
    addr: SocketAddr,
    fx: &Fixture,
    mode: Mode,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let reference = RefServer::start()?;
    let mut next = 0;
    let warm_end = Instant::now() + WARMUP;
    let warm = predict_loop(addr, fx, &mut next, true, &|| Instant::now() >= warm_end);
    let warm_end = Instant::now() + REFERENCE_SLICE;
    predict_loop(reference.addr, fx, &mut next, false, &|| {
        Instant::now() >= warm_end
    });
    let metrics_before = scrape(addr);

    let origin = Instant::now();
    let (slices, appends) = match mode {
        Mode::Predict => {
            let slices = (0..(seconds.round() as usize).max(1))
                .map(|_| measure_slice(addr, reference.addr, fx, &mut next, &|| false))
                .collect();
            (slices, Vec::new())
        }
        Mode::Ingest => {
            let writer_done = AtomicBool::new(false);
            let stop = || writer_done.load(Ordering::SeqCst);
            std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut slices = Vec::new();
                    while !stop() {
                        slices.push(measure_slice(addr, reference.addr, fx, &mut next, &stop));
                    }
                    slices
                });
                let appends = write_appends(addr, fx, origin, out);
                writer_done.store(true, Ordering::SeqCst);
                (reader.join().expect("reader thread"), appends)
            })
        }
    };
    let metrics_after = scrape(addr);
    for l in std::iter::once(&warm).chain(slices.iter().map(|s| &s.program)) {
        out.attempted += l.attempted;
        out.failed += l.failed;
    }
    Ok(Phase {
        slices,
        warmup_requests: warm.attempted,
        appends,
        metrics_before,
        metrics_after,
    })
}

/// The open-loop writer: append `b` is due `b × APPEND_EVERY` after
/// `origin`; each ack must be 200 and advance `n_rows` by the batch size.
fn write_appends(
    addr: SocketAddr,
    fx: &Fixture,
    origin: Instant,
    out: &mut Outcome,
) -> Vec<Append> {
    let path = format!("/models/{TENANT}/rows");
    let mut conn = Conn::connect(addr).ok();
    let mut appends = Vec::with_capacity(fx.batches.len());
    for (b, batch) in fx.batches.iter().enumerate() {
        let due = origin + APPEND_EVERY * u32::try_from(b).expect("append count fits u32");
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let reply = match conn.as_mut() {
            Some(c) => c.call("POST", &path, &batch.body).ok(),
            None => None,
        };
        let done = Instant::now();
        let ack = reply.as_ref().map_or(Value::Null, Reply::json);
        let want_rows = SEED_ROWS + (b + 1) * BATCH_ROWS;
        out.check(
            reply.as_ref().is_some_and(|r| r.status == 200)
                && num(&ack, &["n_rows"]) == want_rows as f64,
        );
        if reply.is_none() {
            conn = Conn::connect(addr).ok();
        }
        appends.push(Append {
            latency_ms: (done - due).as_secs_f64() * 1e3,
            lag_ms: (sent - due).as_secs_f64() * 1e3,
            ack,
        });
    }
    appends
}

/// `/predict` latency and rate over a phase's slices.
struct Summary {
    /// Median over slices of the program's p50 over the reference
    /// server's p50 in the same slice, at [`REFERENCE_P50_MS`].
    p50_ms: f64,
    /// Medians over slices of the raw p50 and p90, and of the rate.
    raw_p50_ms: f64,
    p90_ms: f64,
    per_s: f64,
    reference_p50_ms: f64,
}

fn summarise(slices: &[Slice]) -> Summary {
    // A slice cut short by the end of the writer's schedule is left out.
    let full: Vec<&Slice> = slices
        .iter()
        .filter(|s| s.program.latencies_us.len() >= MIN_SLICE_REQUESTS)
        .filter(|s| s.reference.latencies_us.len() >= MIN_SLICE_REQUESTS)
        .collect();
    let p = |l: &Loop, q: f64| quantile(&l.latencies_us, q) / 1e3;
    let each = |f: &dyn Fn(&Slice) -> f64| full.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let raw = each(&|s| p(&s.program, 0.5));
    let reference = each(&|s| p(&s.reference, 0.5));
    let rates = each(&|s| s.program.latencies_us.len() as f64 / s.program.ran_s);
    note(
        "slice_p50_us",
        format!("{:.0?}", each(&|s| p(&s.program, 0.5) * 1e3)),
    );
    note(
        "slice_reference_p50_us",
        format!("{:.0?}", each(&|s| p(&s.reference, 0.5) * 1e3)),
    );
    note("slice_per_s", format!("{rates:.0?}"));
    Summary {
        p50_ms: median(&each(&|s| p(&s.program, 0.5) / p(&s.reference, 0.5))) * REFERENCE_P50_MS,
        raw_p50_ms: median(&raw),
        p90_ms: median(&each(&|s| p(&s.program, 0.9))),
        per_s: median(&rates),
        reference_p50_ms: median(&reference),
    }
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Outcome, String> {
    let appends = ((ctx.args.seconds / APPEND_EVERY.as_secs_f64()).round() as usize).max(10);
    let fx = Fixture::new(ctx, mode, appends)?;
    let mut out = Outcome::default();
    note("train_rows", fx.train.n_samples());
    note("query_rows", fx.queries.n_samples());
    let (mut setups, mut references) = (Vec::new(), Vec::new());
    let mut server = None;
    for n in 0..BOOTS {
        // Each boot stops the previous server first: one server at a time.
        drop(server.take());
        references.push(reference::time(
            &fx.train_csv,
            &ctx.work.join("reference.csv"),
            REFERENCE_STRIDE,
        )?);
        let (s, secs, _) = boot(ctx, &fx, mode, n, false, &mut out)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one boot");
    note("setup_s_each", format!("{setups:.4?}"));
    note("reference_s_each", format!("{references:.4?}"));
    // Host-normalised: each boot over the reference job timed before it.
    let normalised: Vec<f64> = setups
        .iter()
        .zip(&references)
        .map(|(s, r)| s / r * REFERENCE_S)
        .collect();
    out.set("setup_s", median(&normalised));

    let phase = drive(server.addr, &fx, mode, ctx.args.seconds, &mut out)?;
    let summary = summarise(&phase.slices);
    let all: Vec<f64> = phase
        .slices
        .iter()
        .flat_map(|s| s.program.latencies_us.iter().copied())
        .collect();
    note("predict_requests", all.len());
    note("predict_p99_ms", quantile(&all, 0.99) / 1e3);
    // The raw figures the normalised p50 is derived from.
    note("raw_p50_ms", summary.raw_p50_ms);
    note("reference_p50_ms", summary.reference_p50_ms);
    out.set("p50_ms", summary.p50_ms);
    out.set("p90_ms", summary.p90_ms);
    out.set("throughput_per_s", summary.per_s);
    let per_s = summary.per_s;
    if mode == Mode::Ingest {
        // Append latency is printed, not gated: it exists on this workload
        // only, and every end-to-end metric is printed by every workload.
        let lat: Vec<f64> = phase.appends.iter().map(|a| a.latency_ms).collect();
        note("appends", lat.len());
        note("append_p50_ms", format!("{} ms", quantile(&lat, 0.5)));
        note("append_p90_ms", format!("{} ms", quantile(&lat, 0.9)));
        note("append_latencies_ms", format!("{lat:.1?}"));
        ingest_summary(server.addr, &fx, &phase, &mut out);
    }
    let model = Conn::connect(server.addr)
        .and_then(|mut c| c.call("GET", "/model", b""))
        .map_or(Value::Null, |r| r.json());
    let served_balls = num(&model, &["n_balls"]);
    note("served_balls", served_balls);
    out.check(served_balls == fx.granulated.model.balls.len() as f64);
    out.set("peak_rss_mb", server.peak_rss_kib() as f64 * 1024.0 / 1e6);
    let untraced_per_s = per_s;
    drop(server);

    if ctx.args.trace {
        traced(ctx, &fx, mode, untraced_per_s, &mut out)?;
    }
    Ok(out)
}

/// serve-ingest quality columns and store layers, read back from the
/// server after the writer finished.
fn ingest_summary(addr: SocketAddr, fx: &Fixture, phase: &Phase, out: &mut Outcome) {
    let lag: Vec<f64> = phase.appends.iter().map(|a| a.lag_ms).collect();
    out.set("writer.lag_ms", quantile(&lag, 0.9));
    note("writer_lag_p90_ms", quantile(&lag, 0.9));
    let (mut reused, mut recomputed, mut rebuilt, mut full) = (0.0, 0.0, 0.0, 0.0);
    for a in &phase.appends {
        reused += num(&a.ack, &["incremental", "reused_decisions"]);
        recomputed += num(&a.ack, &["incremental", "recomputed_decisions"]);
        rebuilt += num(&a.ack, &["incremental", "rebuilt_balls"]);
        full += num(&a.ack, &["incremental", "full_rebuild"]);
    }
    out.set("ingest.reuse_ratio", reused / (reused + recomputed));
    out.set(
        "ingest.rebuilt_balls",
        rebuilt / phase.appends.len().max(1) as f64,
    );
    out.set("ingest.full_rebuilds", full);
    note(
        "ingest",
        format!(
            "reused {reused} of {} sweep decisions, {full} full rebuilds",
            reused + recomputed
        ),
    );

    let mut conn = Conn::connect(addr).ok();
    let mut get = |path: String| {
        conn.as_mut()
            .and_then(|c| c.call("GET", &path, b"").ok())
            .map_or(Value::Null, |r| r.json())
    };
    let chain = get(format!("/models/{TENANT}"));
    let versions: Vec<f64> = match chain.get("versions") {
        Some(Value::Arr(v)) => v
            .iter()
            .filter_map(|x| {
                if let Value::Num(n) = x {
                    Some(*n)
                } else {
                    None
                }
            })
            .collect(),
        _ => Vec::new(),
    };
    let (first, head) = (versions.first().copied(), num(&chain, &["head"]));
    let head_info = get(format!("/models/{TENANT}?version={head}"));
    let first_bytes = first.map_or(f64::NAN, |v| {
        num(
            &get(format!("/models/{TENANT}?version={v}")),
            &["file_bytes"],
        )
    });
    let appended = (fx.batches.len() * BATCH_ROWS) as f64;
    out.set("store.versions", versions.len() as f64);
    out.set(
        "store.bytes_per_appended_row",
        (num(&head_info, &["file_bytes"]) - first_bytes) / appended,
    );
    let final_rows = num(&head_info, &["n_rows"]);
    out.check(final_rows == (SEED_ROWS + fx.batches.len() * BATCH_ROWS) as f64);
    note("tenant_rows", final_rows);
    note("tenant_balls", num(&head_info, &["n_balls"]));
    note("store_versions", versions.len());
}

/// The traced run: a fresh server with `--access-log`, driven the same
/// way, plus in-process replays of the layers the server runs.
fn traced(
    ctx: &Ctx,
    fx: &Fixture,
    mode: Mode,
    untraced_per_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (server, _, log) = boot(ctx, fx, mode, BOOTS, true, out)?;
    let phase = drive(server.addr, fx, mode, ctx.args.seconds, out)?;
    let log = log.expect("traced boot has an access log");
    // The access log is written by its own thread: wait for every line.
    let measured: u64 = phase.slices.iter().map(|s| s.program.attempted).sum();
    let want = (phase.warmup_requests + measured) as usize;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut lines = Vec::new();
    while Instant::now() < deadline {
        lines = access_lines(&log);
        if lines.iter().filter(|l| l.0 == "/predict").count() >= want {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(server);

    let predicts: Vec<&Value> = lines
        .iter()
        .filter(|l| l.0 == "/predict")
        .skip(phase.warmup_requests as usize)
        .map(|l| &l.1)
        .collect();
    let stage = |lines: &[&Value], field: &str| {
        median(
            &lines
                .iter()
                .map(|v| num(v, &["stages", field]))
                .collect::<Vec<_>>(),
        )
    };
    let total = median(
        &predicts
            .iter()
            .map(|v| num(v, &["total_us"]))
            .collect::<Vec<_>>(),
    );
    out.set("server.total_us", total);
    let stages = [
        ("batcher.queue_wait_us", "queue_wait_us"),
        ("batcher.assemble_us", "batch_assemble_us"),
        ("gbknn.predict_us", "predict_us"),
        ("registry.store_io_us", "store_io_us"),
        ("http.serialize_us", "serialize_us"),
    ];
    let mut stage_sum = 0.0;
    for (name, field) in stages {
        let v = stage(&predicts, field);
        out.set(name, v);
        stage_sum += v;
    }
    let summary = summarise(&phase.slices);
    let (client_p50_us, traced_per_s) = (summary.raw_p50_ms * 1e3, summary.per_s);
    out.set("http.unattributed_us", client_p50_us - total);
    note(
        "server_stage_sum",
        format!(
            "{stage_sum:.1} us of server total_us {total:.1} us; client p50 {client_p50_us:.1} us"
        ),
    );
    out.set(
        "obs.access_log_overhead_pct",
        (untraced_per_s - traced_per_s) / untraced_per_s * 100.0,
    );
    let delta = |path: &[&str]| num(&phase.metrics_after, path) - num(&phase.metrics_before, path);
    let flushes = delta(&["batcher", "flushes"]);
    out.set(
        "batcher.requests_per_flush",
        delta(&["requests", "predict"]) / flushes,
    );
    out.set(
        "batcher.rows_per_flush",
        delta(&["batcher", "rows"]) / flushes,
    );

    out.set("io.read_csv_ms", fx.read_csv_ms);
    out.set("rdgbg.granulate_ms", fx.granulated.ms);
    layers::record_cover(out, &fx.granulated);
    layers::index_and_kernel(out, &fx.train);
    layers::gbknn(out, &fx.granulated.model, fx.train.n_classes(), &fx.queries);

    if mode == Mode::Ingest {
        let rows: Vec<&Value> = lines
            .iter()
            .filter(|l| l.0.ends_with("/rows"))
            .skip(1)
            .map(|l| &l.1)
            .collect();
        let ingest_us = stage(&rows, "ingest_us");
        out.set("registry.ingest_us", ingest_us);
        // Replay the tenant's maintenance in-process: the same seed and
        // batches through `MaintainedModel`, and the predictor rebuild the
        // registry does after each append.
        let mut state = MaintainedModel::build(fx.seed_rows.clone(), 5, GranulationBackend::Auto);
        let (mut append_ms, mut build_ms) = (Vec::new(), Vec::new());
        for batch in &fx.batches {
            let t = Instant::now();
            state.append(batch.rows.features(), batch.rows.labels());
            append_ms.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(GbKnn::from_model(state.model(), S8_CLASSES, 1));
            build_ms.push(ms(t));
        }
        let (append_p50, build_p50) = (median(&append_ms), median(&build_ms));
        out.set("incremental.append_ms", append_p50);
        out.set("gbknn.build_ms", build_p50);
        out.set(
            "registry.ingest_other_us",
            ingest_us - 1e3 * (append_p50 + build_p50),
        );
        note("replayed_tenant_balls", state.model().balls.len());
        let ingest = phase
            .appends
            .iter()
            .map(|a| a.latency_ms)
            .collect::<Vec<_>>();
        note("traced_append_p50_ms", median(&ingest));
    }
    Ok(())
}

/// `(endpoint, record)` of every access-log line.
fn access_lines(path: &Path) -> Vec<(String, Value)> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .map(|v| {
            let endpoint = match v.get("endpoint") {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (endpoint, v)
        })
        .collect()
}
