//! End-to-end benchmark of `gbabs sample` and `gbabs serve`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload offline-banana-2d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the `gbabs` binary
//! from the checkout, generates every input from `--seed`, drives the
//! binary the way a user does (one process per `gbabs sample` call; a
//! `gbabs serve` process over HTTP), checks every output against the
//! library computed in this process, and prints one JSON result line last.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! workload with layer timings taken from outside the program (timed
//! library calls here, the server's access log and `/metrics`) and reports
//! the per-layer metrics. CPU-bound times are host-normalised against a
//! reference job (`reference.rs`) that the benchmark runs as a child of
//! itself (`--reference IN OUT STRIDE`). See `e2ebench/README.md`.

mod http;
mod inputs;
mod layers;
mod offline;
mod proc;
mod reference;
mod refserver;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What every workload gets: its arguments, the binary under test and a
/// private scratch directory inside the checkout.
pub struct Ctx {
    pub args: Args,
    pub gbabs: PathBuf,
    pub work: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "offline-banana-2d",
    "offline-usps-256d",
    "serve-predict",
    "serve-ingest",
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Builds the `gbabs` binary from the checkout with the repository's own
/// release profile, and returns its path.
fn build_gbabs(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "gbabs-cli", "--bin", "gbabs"])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building gbabs failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("gbabs");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// The filesystem type holding `path` (longest matching mount point).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// `(steal, total)` jiffies of all CPUs so far, from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn run(args: Args) -> Result<report::Outcome, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err("run from the repository root".into());
    }
    let gbabs = build_gbabs(&root)?;
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    report::note("workload", &args.workload);
    report::note("seed", args.seed);
    report::note("trace", u8::from(args.trace));
    report::note("work_filesystem", filesystem_of(&work));
    report::note("kernel_tier", gb_dataset::active_kernel().name());
    report::note(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let ctx = Ctx { args, gbabs, work };
    let (steal0, total0) = cpu_jiffies();
    let seed = ctx.args.seed;
    let outcome = match ctx.args.workload.as_str() {
        "offline-banana-2d" => offline::run(&ctx, &|i| inputs::banana(seed, i), (1, 0.062)),
        "offline-usps-256d" => {
            let population = inputs::usps_population();
            offline::run(&ctx, &|i| inputs::usps(&population, seed, i), (3, 0.150))
        }
        "serve-predict" => serve::run(&ctx, serve::Mode::Predict),
        _ => serve::run(&ctx, serve::Mode::Ingest),
    };
    let (steal1, total1) = cpu_jiffies();
    // Time the hypervisor gave other guests on the host's CPUs during the
    // run: the main source of run-to-run spread on a shared host.
    report::note(
        "cpu_steal_pct",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    outcome
}

fn main() -> ExitCode {
    // `e2ebench --reference IN OUT STRIDE`: the reference job, run as a
    // child of the benchmark (see `reference.rs`).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.len() == 1 && raw[0] == "--reference-server" {
        return match refserver::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench --reference-server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if raw.len() == 4 && raw[0] == "--reference" {
        let stride = raw[3].parse().unwrap_or(1);
        return match reference::job(Path::new(&raw[1]), Path::new(&raw[2]), stride) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench --reference: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = args.trace;
    match run(args) {
        Ok(outcome) => {
            report::note(
                "error_rate",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
            );
            let catalogue = if trace {
                report::PER_LAYER
            } else {
                for &(name, unit) in report::UNGATED {
                    let value = outcome.values.get(name).copied().unwrap_or(0.0);
                    report::note(name, format!("{value} {unit}"));
                }
                report::END_TO_END
            };
            println!("{}", outcome.result_line(catalogue));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
