//! Offline workloads: cold `gbabs sample` calls, one process per input,
//! each on an input no earlier call of the run has read.

use crate::layers::{self, ms};
use crate::report::{note, Outcome};
use crate::stats::{median, quantile};
use crate::{proc, reference, Ctx};
use gb_dataset::distance::calibrated_leaf_size;
use gb_dataset::io::{read_csv, write_csv, write_csv_str, CsvOptions};
use gb_dataset::Dataset;
use gbabs::diagnostics::verify_rdgbg_invariants;
use gbabs::{borderline_from_model, gbabs, RdGbgConfig};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `gbabs sample`'s default `--seed`; the references use it too.
const SAMPLE_SEED: u64 = 42;
/// Calls per run at least, however short `--seconds` is.
const MIN_CALLS: usize = 5;
/// Inputs generated back to back ahead of their calls.
const BATCH: usize = 8;

struct Call {
    input: PathBuf,
    output: PathBuf,
    rows: usize,
    setup_s: f64,
    /// The reference job on the same input, just before the call.
    reference_s: f64,
    wall_s: f64,
    rss_kib: u64,
    exited_ok: bool,
}

/// Quality columns of one call's reference result.
struct Quality {
    matches: bool,
    balls: usize,
    orphans: usize,
    noise: usize,
    borderline_balls: usize,
    kept: usize,
}

/// Runs an offline workload. `reference` is the reference job's query
/// stride on this workload's inputs and its nominal time there, the scale
/// of the host-normalised times.
pub fn run(
    ctx: &Ctx,
    input: &dyn Fn(u64) -> Dataset,
    reference: (usize, f64),
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (stride, reference_s) = reference;
    let (calls, replays) = measure(ctx, input, stride, &mut out)?;
    let walls: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    // Host-normalised: each call's time over the reference job's just
    // before it, at the reference's nominal time.
    let norm_walls: Vec<f64> = calls
        .iter()
        .map(|c| c.wall_s / c.reference_s * reference_s)
        .collect();
    let p50_ms = median(&norm_walls) * 1e3;
    let rows: usize = calls.iter().map(|c| c.rows).sum();
    // Each batch of inputs is generated just before its calls, so its
    // set-up times are normalised by the median reference time of those
    // calls: one reference time alone is too noisy a divisor.
    let norm_setups: Vec<f64> = calls
        .chunks(BATCH)
        .flat_map(|batch| {
            let r = median(&batch.iter().map(|c| c.reference_s).collect::<Vec<_>>());
            batch.iter().map(move |c| c.setup_s / r * reference_s)
        })
        .collect();
    out.set("setup_s", median(&norm_setups));
    out.set("p50_ms", p50_ms);
    out.set("p90_ms", quantile(&norm_walls, 0.9) * 1e3);
    out.set(
        "throughput_per_s",
        rows as f64 / norm_walls.iter().sum::<f64>(),
    );
    let peak_kib = calls.iter().map(|c| c.rss_kib).max().unwrap_or(0);
    out.set("peak_rss_mb", peak_kib as f64 * 1024.0 / 1e6);
    note("calls", calls.len());
    // The raw figures the normalised ones are derived from.
    note("sample_s", median(&walls));
    note(
        "raw_setup_s",
        median(&calls.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
    );
    note(
        "reference_s",
        median(&calls.iter().map(|c| c.reference_s).collect::<Vec<_>>()),
    );

    for (i, (call, q)) in calls.iter().zip(references(&calls)).enumerate() {
        let q = q?;
        out.check(call.exited_ok && q.matches);
        note(
            "call",
            format!(
                "{i} wall_ms={:.3} setup_ms={:.3} reference_ms={:.3} rss_mb={:.1} exit_ok={} \
                 output_matches={} rows={} balls={} orphan_share={:.4} noise_rows={} \
                 borderline_balls={} kept_rows={} sampling_ratio={:.4}",
                call.wall_s * 1e3,
                call.setup_s * 1e3,
                call.reference_s * 1e3,
                call.rss_kib as f64 * 1024.0 / 1e6,
                call.exited_ok,
                q.matches,
                call.rows,
                q.balls,
                q.orphans as f64 / q.balls.max(1) as f64,
                q.noise,
                q.borderline_balls,
                q.kept,
                q.kept as f64 / call.rows.max(1) as f64,
            ),
        );
    }
    if ctx.args.trace {
        record_replays(&replays, &calls, &mut out);
    }
    Ok(out)
}

/// Times one `gbabs sample` call on input after input, for `--seconds`
/// (at least [`MIN_CALLS`] calls), each right after the reference job on
/// the same input. Inputs are generated in batches of [`BATCH`] ahead of
/// their calls, back to back, which is the untimed set-up of each call. A
/// traced run replays each input in this process right after its call, so
/// that calls and replays see the same host conditions, for three times
/// as long.
fn measure(
    ctx: &Ctx,
    input: &dyn Fn(u64) -> Dataset,
    stride: usize,
    out: &mut Outcome,
) -> Result<(Vec<Call>, Vec<Replay>), String> {
    // A traced run measures three windows, so that the paired stage-sum
    // comparison rests on enough pairs.
    let windows = if ctx.args.trace { 3.0 } else { 1.0 };
    let window = Duration::from_secs_f64(windows * ctx.args.seconds);
    let start = Instant::now();
    let mut calls: Vec<Call> = Vec::new();
    let mut replays = Vec::new();
    let mut ready: VecDeque<(PathBuf, usize, f64)> = VecDeque::new();
    while calls.len() < MIN_CALLS || start.elapsed() < window {
        let i = calls.len();
        if ready.is_empty() {
            for k in i..i + BATCH {
                let path = ctx.work.join(format!("in{k}.csv"));
                let made = Instant::now();
                let data = input(k as u64);
                write_csv(&data, &path).map_err(|e| format!("{}: {e}", path.display()))?;
                ready.push_back((path, data.n_samples(), made.elapsed().as_secs_f64()));
            }
            // Flush the inputs and the previous call's output to disk
            // outside the timed calls, so page-cache writeback does not run
            // during them.
            for (path, _, _) in &ready {
                settle(path)?;
            }
        }
        if let Some(prev) = calls.last() {
            settle(&prev.output)?;
        }
        let (path, rows, setup_s) = ready.pop_front().expect("a generated input");
        let output = ctx.work.join(format!("out{i}.csv"));
        let reference_s = reference::time(&path, &ctx.work.join("reference.csv"), stride)?;
        let stderr =
            File::create(ctx.work.join(format!("call{i}.err"))).map_err(|e| e.to_string())?;
        let finished = proc::run_timed(
            Command::new(&ctx.gbabs)
                .arg("sample")
                .arg(&path)
                .arg("-o")
                .arg(&output)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr),
        )
        .map_err(|e| format!("gbabs sample: {e}"))?;
        calls.push(Call {
            input: path,
            output,
            rows,
            setup_s,
            reference_s,
            wall_s: finished.wall.as_secs_f64(),
            rss_kib: finished.max_rss_kib,
            exited_ok: finished.success,
        });
        if ctx.args.trace {
            replays.push(replay(ctx, &calls[i], i, out)?);
        }
    }
    for (path, _, _) in ready {
        let _ = fs::remove_file(path);
    }
    Ok((calls, replays))
}

fn settle(path: &Path) -> Result<(), String> {
    File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The library's result for each call's input, computed in this process
/// on two threads after the timed window, compared byte for byte with the
/// file `gbabs sample` wrote.
fn references(calls: &[Call]) -> Vec<Result<Quality, String>> {
    let reference = |call: &Call| -> Result<Quality, String> {
        let data = read_csv(&call.input, &CsvOptions::default()).map_err(|e| e.to_string())?;
        let config = RdGbgConfig {
            seed: SAMPLE_SEED,
            ..RdGbgConfig::default()
        };
        let result = gbabs(&data, &config);
        let expected = write_csv_str(&result.sampled_dataset(&data));
        let written = fs::read(&call.output).unwrap_or_default();
        Ok(Quality {
            matches: written == expected.as_bytes(),
            balls: result.model.balls.len(),
            orphans: result.model.orphan_count,
            noise: result.model.noise.len(),
            borderline_balls: result.borderline_balls.len(),
            kept: result.sampled_rows.len(),
        })
    };
    let mut results: Vec<Option<Result<Quality, String>>> = calls.iter().map(|_| None).collect();
    let half = calls.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        for (slots, calls) in results.chunks_mut(half).zip(calls.chunks(half)) {
            s.spawn(move || {
                for (slot, call) in slots.iter_mut().zip(calls) {
                    *slot = Some(reference(call));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every reference computed"))
        .collect()
}

/// Stage timings (read, granulate, detect, write; ms) and cover counts of
/// one in-process replay.
struct Replay {
    stages: [f64; 4],
    counts: [f64; 8],
}

/// Replays one call's input through the public functions `gbabs sample`
/// calls, in the same order, timing each stage; checks the output against
/// the call's and the cover against the RD-GBG invariants. The first
/// replay also probes the index, kernel and predictor layers.
fn replay(ctx: &Ctx, call: &Call, i: usize, out: &mut Outcome) -> Result<Replay, String> {
    let t = Instant::now();
    let data = read_csv(&call.input, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let read = ms(t);
    let g = layers::granulate(&data, SAMPLE_SEED);
    let t = Instant::now();
    let (rows, balls) = borderline_from_model(&data, &g.model);
    let detect = ms(t);
    let replayed = ctx.work.join(format!("replay{i}.csv"));
    let t = Instant::now();
    write_csv(&data.select(&rows), &replayed).map_err(|e| e.to_string())?;
    let write = ms(t);

    let same = fs::read(&replayed).ok() == fs::read(&call.output).ok();
    let invariants = verify_rdgbg_invariants(&data, &g.model);
    out.check(same && invariants.is_ok());
    if let Err(e) = invariants {
        note("invariant_violation", format!("input {i}: {e}"));
    }
    if i == 0 {
        layers::index_and_kernel(out, &data);
        layers::gbknn(out, &g.model, data.n_classes(), &data);
    }
    let m = &g.model;
    // The leaf size this process calibrated once for the input's width; each
    // `gbabs sample` process runs its own sweep and may pick another.
    note(
        "replay",
        format!(
            "{i} call_wall_ms={:.3} stage_sum_ms={:.3} harness_leaf_size={}",
            call.wall_s * 1e3,
            read + g.ms + detect + write,
            calibrated_leaf_size(data.n_features())
        ),
    );
    Ok(Replay {
        stages: [read, g.ms, detect, write],
        counts: [
            m.iterations as f64,
            m.balls.len() as f64,
            m.orphan_count as f64,
            g.conflict_bounded as f64,
            m.noise.len() as f64,
            balls.len() as f64,
            rows.len() as f64,
            rows.len() as f64 / data.n_samples() as f64,
        ],
    })
}

/// Per-layer metrics of a traced run: the median of each stage and count
/// over the replays, and the stage sum against the calls, pair by pair
/// (each replay ran right after its call, in the same host conditions).
fn record_replays(replays: &[Replay], calls: &[Call], out: &mut Outcome) {
    let counts = [
        "rdgbg.iterations",
        "rdgbg.balls",
        "rdgbg.orphan_balls",
        "rdgbg.conflict_bounded_balls",
        "rdgbg.noise_rows",
        "borderline.balls",
        "borderline.kept_rows",
        "borderline.sampling_ratio",
    ];
    for (k, name) in counts.into_iter().enumerate() {
        out.set(
            name,
            median(&replays.iter().map(|r| r.counts[k]).collect::<Vec<_>>()),
        );
    }
    let stages = [
        "io.read_csv_ms",
        "rdgbg.granulate_ms",
        "borderline.detect_ms",
        "io.write_csv_ms",
    ];
    for (k, name) in stages.into_iter().enumerate() {
        out.set(
            name,
            median(&replays.iter().map(|r| r.stages[k]).collect::<Vec<_>>()),
        );
    }
    let pairs = || replays.iter().zip(calls);
    let sums: Vec<f64> = replays.iter().map(|r| r.stages.iter().sum()).collect();
    let gaps: Vec<f64> = pairs()
        .map(|(r, c)| c.wall_s * 1e3 - r.stages.iter().sum::<f64>())
        .collect();
    let shares: Vec<f64> = pairs()
        .map(|(r, c)| 1.0 - r.stages.iter().sum::<f64>() / (c.wall_s * 1e3))
        .collect();
    let share = median(&shares);
    out.set("cli.unattributed_ms", median(&gaps));
    note("replayed_inputs", replays.len());
    note(
        "stage_sum",
        format!(
            "{:.3} ms vs untraced sample {:.3} ms (medians); per-call gap median {:+.2}% \
             (bound 5%), within={}",
            median(&sums),
            median(&calls.iter().map(|c| c.wall_s * 1e3).collect::<Vec<_>>()),
            share * 100.0,
            share.abs() <= 0.05
        ),
    );
}
