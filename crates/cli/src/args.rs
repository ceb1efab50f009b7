//! Hand-rolled argument parsing (no external CLI dependency).

use gb_dataset::index::GranulationBackend;
use gb_dataset::Metric;
use std::fmt;
use std::path::PathBuf;

/// Sampling methods selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's GBABS (default).
    Gbabs,
    /// GGBS baseline.
    Ggbs,
    /// IGBS baseline (imbalanced datasets).
    Igbs,
    /// Simple random sampling (needs `--ratio`).
    Srs,
    /// Stratified sampling (needs `--ratio`).
    Stratified,
    /// Systematic sampling (needs `--ratio`).
    Systematic,
    /// SMOTE oversampling.
    Smote,
    /// Borderline-SMOTE oversampling.
    BorderlineSmote,
    /// ADASYN oversampling.
    Adasyn,
    /// Tomek-link undersampling.
    Tomek,
    /// Condensed nearest neighbour undersampling.
    Cnn,
    /// Edited nearest neighbours (Wilson editing).
    Enn,
    /// SMOTE followed by Tomek-link cleaning.
    SmoteTomek,
    /// SMOTE followed by ENN cleaning.
    SmoteEnn,
}

impl Method {
    /// All methods with their CLI spellings.
    pub const ALL: [(&'static str, Method); 14] = [
        ("gbabs", Method::Gbabs),
        ("ggbs", Method::Ggbs),
        ("igbs", Method::Igbs),
        ("srs", Method::Srs),
        ("stratified", Method::Stratified),
        ("systematic", Method::Systematic),
        ("smote", Method::Smote),
        ("borderline-smote", Method::BorderlineSmote),
        ("adasyn", Method::Adasyn),
        ("tomek", Method::Tomek),
        ("cnn", Method::Cnn),
        ("enn", Method::Enn),
        ("smote-tomek", Method::SmoteTomek),
        ("smote-enn", Method::SmoteEnn),
    ];

    /// Parses a CLI spelling.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<Method> {
        Method::ALL
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, m)| m)
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        Method::ALL
            .iter()
            .find(|&&(_, m)| m == self)
            .map(|&(name, _)| name)
            .expect("every method has a spelling")
    }

    /// True when the method needs an explicit `--ratio`.
    #[must_use]
    pub fn needs_ratio(self) -> bool {
        matches!(self, Method::Srs | Method::Stratified | Method::Systematic)
    }

    /// Whether `gbabs sample` with this method reads `flag`, one of
    /// [`METHOD_FLAGS`].
    fn reads(self, flag: &str) -> bool {
        if flag == "--ratio" {
            self.needs_ratio()
        } else {
            self == Method::Gbabs
        }
    }
}

/// The `sample` flags only some methods read: `--ratio` for the
/// ratio-based methods, the rest for gbabs. The parser refuses them for
/// any other method instead of ignoring them.
pub const METHOD_FLAGS: [&str; 5] = ["--rho", "--ratio", "--backend", "--metric", "--progress"];

/// Every flag with the commands that read it. The parser refuses a flag
/// given to any other command instead of ignoring it. `--backend` has two
/// meanings: a gb-serve shard address (`HOST:PORT`) for `router`, the
/// granulation index for the other commands.
pub const COMMAND_FLAGS: [(&str, &[Command]); 23] = {
    use Command::{Inspect, Router, Sample, Serve};
    [
        ("-o", &[Sample]),
        ("--output", &[Sample]),
        ("--method", &[Sample]),
        ("--rho", &[Sample, Inspect, Serve]),
        ("--ratio", &[Sample]),
        ("--seed", &[Sample, Inspect, Serve]),
        ("--backend", &[Sample, Inspect, Serve, Router]),
        ("--metric", &[Sample, Inspect, Serve]),
        ("--progress", &[Sample]),
        ("--addr", &[Serve, Router]),
        ("--workers", &[Serve, Router]),
        ("--request-timeout-ms", &[Serve, Router]),
        ("--access-log", &[Serve, Router]),
        ("--k", &[Serve]),
        ("--model-dir", &[Serve]),
        ("--model-mem-budget", &[Serve]),
        ("--max-versions", &[Serve]),
        ("--preload", &[Serve]),
        ("--store-fault-rate", &[Serve]),
        ("--store-fault-seed", &[Serve]),
        ("--backends", &[Router]),
        ("--vnodes", &[Router]),
        ("--health-interval-ms", &[Router]),
    ]
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Input CSV path.
    pub input: PathBuf,
    /// Output CSV path (`sample` only).
    pub output: Option<PathBuf>,
    /// Sampling method (`sample` only).
    pub method: Method,
    /// RD-GBG density tolerance ρ.
    pub rho: usize,
    /// Keep ratio for the ratio-based general samplers.
    pub ratio: Option<f64>,
    /// Seed for all randomness.
    pub seed: u64,
    /// Neighbour-index backend of the RD-GBG granulation (`sample` with
    /// the gbabs method, `inspect`, `serve`). All backends produce
    /// identical output; this only selects the query asymptotics.
    pub backend: GranulationBackend,
    /// Distance metric for granulation and prediction (GBABS method and
    /// `inspect`/`serve`): squared-Euclidean (default, the paper's
    /// metric), Manhattan, or cosine.
    pub metric: Metric,
    /// Listen address (`serve` only).
    pub addr: String,
    /// GB-kNN vote size k (`serve` only).
    pub k: usize,
    /// Server worker threads (`serve` only).
    pub workers: usize,
    /// Model-store directory: persist accepted models and repopulate the
    /// registry after a restart (`serve` only).
    pub model_dir: Option<PathBuf>,
    /// Resident-model memory budget in bytes; least-recently-used tenants
    /// are evicted to disk when exceeded (`serve` only; requires
    /// `--model-dir`).
    pub model_mem_budget: Option<u64>,
    /// Store versions retained per tenant before the oldest links of the
    /// chain are garbage-collected after each mutation (`serve` only;
    /// requires `--model-dir`). `None` retains every version.
    pub max_versions: Option<usize>,
    /// Warm-ahead at boot: rebuild this many of the most-recently-used
    /// tenants in the background once the server starts (`serve` only;
    /// requires `--model-dir`). 0 disables.
    pub preload: usize,
    /// Per-request deadline in milliseconds (`serve` only); 0 disables
    /// deadline enforcement and restores the legacy single-read-timeout
    /// behaviour.
    pub request_timeout_ms: u64,
    /// Store fault-injection probability in (0, 1] (`serve` only; requires
    /// `--model-dir`). Chaos-testing knob — never set in production.
    pub store_fault_rate: Option<f64>,
    /// Seed for the injected-fault schedule (`serve` only).
    pub store_fault_seed: u64,
    /// Structured JSONL access-log target (`serve` only): a file path, or
    /// `stderr`/`-` for standard error. `None` disables access logging.
    pub access_log: Option<String>,
    /// Emit per-iteration granulation progress events to stderr
    /// (`sample` with the gbabs method only).
    pub progress: bool,
    /// Backend gb-serve addresses the router shards tenants over
    /// (`router` only; `--backend`, repeatable, or `--backends` comma
    /// list).
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring (`router`
    /// only).
    pub vnodes: usize,
    /// Backend `/readyz` poll interval in milliseconds (`router` only).
    pub health_interval_ms: u64,
}

/// Parses a byte count with an optional `K`/`M`/`G` (or `KB`/`MB`/`GB`,
/// case-insensitive) suffix: `1048576`, `64M`, `2G`, …
#[must_use]
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let upper = s.to_ascii_uppercase();
    let (digits, multiplier) = if let Some(d) = upper.strip_suffix("KB").or(upper.strip_suffix('K'))
    {
        (d, 1u64 << 10)
    } else if let Some(d) = upper.strip_suffix("MB").or(upper.strip_suffix('M')) {
        (d, 1u64 << 20)
    } else if let Some(d) = upper.strip_suffix("GB").or(upper.strip_suffix('G')) {
        (d, 1u64 << 30)
    } else {
        (upper.as_str(), 1)
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(multiplier).filter(|&b| b > 0)
}

/// Subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Sample a CSV to a new CSV.
    Sample,
    /// Print a granulation report.
    Inspect,
    /// Granulate a CSV and serve predictions over HTTP.
    Serve,
    /// Front a cluster of gb-serve backends with a consistent-hash
    /// sharding router (no input CSV — the backends own the models).
    Router,
}

impl Command {
    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Command::Sample => "sample",
            Command::Inspect => "inspect",
            Command::Serve => "serve",
            Command::Router => "router",
        }
    }
}

/// Parse failures, rendered to the user with usage text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// No input path given.
    MissingInput,
    /// `sample` without `-o`.
    MissingOutput,
    /// Unknown flag.
    UnknownFlag(String),
    /// A flag without its value, or a value that does not parse.
    BadValue(String),
    /// `--method` value not recognized.
    UnknownMethod(String),
    /// `--backend` value not recognized.
    UnknownBackend(String),
    /// `--metric` value not recognized.
    UnknownMetric(String),
    /// Ratio-based method without `--ratio`, or ratio out of (0, 1].
    BadRatio,
    /// `--rho` below 2 (the density rules need ρ ≥ 2).
    BadRho,
    /// `--model-mem-budget` without `--model-dir` (evicted tenants need a
    /// store to reload from).
    BudgetWithoutDir,
    /// `--store-fault-rate` without `--model-dir` (there is no store to
    /// inject faults into), or a rate outside (0, 1].
    BadFaultRate,
    /// `--max-versions` without `--model-dir` (there is no version chain
    /// without a store).
    VersionsWithoutDir,
    /// `--preload` without `--model-dir` (there are no cold tenants to
    /// warm without a store).
    PreloadWithoutDir,
    /// `router` without any `--backend`/`--backends`.
    MissingBackends,
    /// A flag of [`COMMAND_FLAGS`] given to a command that does not read
    /// it.
    FlagNotForCommand {
        /// The refused flag.
        flag: &'static str,
        /// The command that would have ignored it.
        command: Command,
    },
    /// `sample` with a flag of [`METHOD_FLAGS`] the chosen method does not
    /// read.
    FlagNotForMethod {
        /// The refused flag.
        flag: &'static str,
        /// The method that would have ignored it.
        method: Method,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => {
                write!(f, "missing subcommand (sample | inspect | serve | router)")
            }
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            ParseError::MissingInput => write!(f, "missing input CSV path"),
            ParseError::MissingOutput => write!(f, "sample requires -o/--output"),
            ParseError::UnknownFlag(s) => write!(f, "unknown flag '{s}'"),
            ParseError::BadValue(s) => write!(f, "bad or missing value for '{s}'"),
            ParseError::UnknownMethod(m) => {
                let names: Vec<&str> = Method::ALL.iter().map(|(n, _)| *n).collect();
                write!(
                    f,
                    "unknown method '{m}' (expected one of {})",
                    names.join(", ")
                )
            }
            ParseError::UnknownBackend(b) => {
                write!(
                    f,
                    "unknown backend '{b}' (expected auto, brute, kdtree or vptree)"
                )
            }
            ParseError::UnknownMetric(m) => {
                write!(
                    f,
                    "unknown metric '{m}' (expected sqeuclidean, manhattan or cosine)"
                )
            }
            ParseError::BadRatio => {
                write!(f, "this method requires --ratio in (0, 1]")
            }
            ParseError::BadRho => {
                write!(f, "--rho must be at least 2 (the density rules h == 1, 1 < h < rho, h == rho need it)")
            }
            ParseError::BudgetWithoutDir => {
                write!(
                    f,
                    "--model-mem-budget requires --model-dir (evicted models \
                     must have a store file to reload from)"
                )
            }
            ParseError::BadFaultRate => {
                write!(
                    f,
                    "--store-fault-rate requires --model-dir and a rate in (0, 1]"
                )
            }
            ParseError::VersionsWithoutDir => {
                write!(
                    f,
                    "--max-versions requires --model-dir (version chains live \
                     in the model store)"
                )
            }
            ParseError::PreloadWithoutDir => {
                write!(
                    f,
                    "--preload requires --model-dir (only persisted tenants \
                     can be warmed at boot)"
                )
            }
            ParseError::MissingBackends => {
                write!(
                    f,
                    "router requires at least one --backend HOST:PORT (or --backends a,b,c)"
                )
            }
            ParseError::FlagNotForCommand { flag, command } => {
                let readers: Vec<&str> = COMMAND_FLAGS
                    .iter()
                    .find(|(f, _)| f == flag)
                    .map_or(&[][..], |(_, commands)| commands)
                    .iter()
                    .map(|c| c.name())
                    .collect();
                write!(
                    f,
                    "{flag} does not apply to `gbabs {}` (it applies to {} only)",
                    command.name(),
                    readers.join(", ")
                )
            }
            ParseError::FlagNotForMethod { flag, method } => {
                let readers = if *flag == "--ratio" {
                    "srs, stratified and systematic"
                } else {
                    "gbabs"
                };
                write!(
                    f,
                    "{flag} does not apply to --method {} (it applies to {readers} only)",
                    method.name()
                )
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  gbabs sample  INPUT.csv -o OUTPUT.csv [--method M] [--rho N] [--ratio R] [--seed S] [--backend B]
                [--metric D] [--progress]
  gbabs inspect INPUT.csv [--rho N] [--seed S] [--backend B] [--metric D]
  gbabs serve   INPUT.csv [--addr HOST:PORT] [--rho N] [--seed S] [--backend B] [--metric D]
                [--k K] [--workers W] [--model-dir DIR] [--model-mem-budget BYTES]
                [--max-versions N] [--preload N]
                [--request-timeout-ms MS] [--store-fault-rate P] [--store-fault-seed S]
                [--access-log PATH|stderr]
  gbabs router  --backend HOST:PORT [--backend HOST:PORT ...] [--backends A,B,...]
                [--addr HOST:PORT] [--vnodes N] [--health-interval-ms MS] [--workers W]
                [--request-timeout-ms MS] [--access-log PATH|stderr]

methods: gbabs (default), ggbs, igbs, srs, stratified, systematic,
         smote, borderline-smote, adasyn, tomek, cnn, enn,
         smote-tomek, smote-enn
         (srs/stratified/systematic require --ratio; sample refuses
         --rho, --backend, --metric and --progress for any method but
         gbabs, and --ratio for any but srs/stratified/systematic)

Each command refuses the flags its line above does not list.

options:
  -o, --output PATH   output CSV (sample)
  --method M          sampling method (default gbabs)
  --rho N             RD-GBG density tolerance (default 5, minimum 2)
  --ratio R           keep ratio in (0,1] (srs/stratified/systematic)
  --seed S            RNG seed (default 42)
  --backend B         granulation index: auto (default), brute, kdtree,
                      vptree — output-identical, speed differs
  --metric D          distance metric: sqeuclidean (default, the paper's
                      metric), manhattan, cosine (gbabs/inspect/serve)
  --addr HOST:PORT    serve listen address (default 127.0.0.1:8080)
  --k K               serve: GB-kNN vote size (default 1)
  --workers W         serve: worker threads (default 8)
  --model-dir DIR     serve: persist models here and reload them at boot
                      (enables POST-reload survival across restarts)
  --model-mem-budget BYTES
                      serve: resident-model memory budget (suffixes K/M/G);
                      LRU tenants are evicted to the model dir when exceeded
  --max-versions N    serve: retain at most N store versions per tenant,
                      garbage-collecting the oldest after each mutation
                      (requires --model-dir; default retains all)
  --preload N         serve: rebuild the N most-recently-used tenants in
                      the background at boot (requires --model-dir)
  --request-timeout-ms MS
                      serve: per-request deadline (default 10000); slow or
                      stalled requests are rejected 408/504 when it expires;
                      0 disables deadline enforcement
  --store-fault-rate P
                      serve: inject store faults with probability P in (0,1]
                      (chaos testing; requires --model-dir)
  --store-fault-seed S
                      serve: seed for the injected-fault schedule (default 42)
  --access-log TARGET serve: write one JSON line per request (with id,
                      tenant, status, per-stage timings) to TARGET — a
                      file path, or stderr/- for standard error
  --progress          sample: print per-iteration granulation progress to
                      stderr (gbabs method only)
  --backend HOST:PORT router: add one gb-serve backend to the consistent-hash
                      ring (repeatable); --backends A,B,C adds several
  --vnodes N          router: virtual nodes per backend on the ring
                      (default 64; more = better balance)
  --health-interval-ms MS
                      router: how often each backend's /readyz is polled
                      (default 500)
";

/// Parses `args` (without the program name).
///
/// # Errors
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse(args: &[String]) -> Result<Cli, ParseError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        None => return Err(ParseError::MissingCommand),
        Some("sample") => Command::Sample,
        Some("inspect") => Command::Inspect,
        Some("serve") => Command::Serve,
        Some("router") => Command::Router,
        Some(other) => return Err(ParseError::UnknownCommand(other.to_string())),
    };
    let mut cli = Cli {
        command,
        input: PathBuf::new(),
        output: None,
        method: Method::Gbabs,
        rho: 5,
        ratio: None,
        seed: 42,
        backend: GranulationBackend::Auto,
        metric: Metric::SqEuclidean,
        addr: "127.0.0.1:8080".to_string(),
        k: 1,
        workers: 8,
        model_dir: None,
        model_mem_budget: None,
        max_versions: None,
        preload: 0,
        request_timeout_ms: 10_000,
        store_fault_rate: None,
        store_fault_seed: 42,
        access_log: None,
        progress: false,
        backends: Vec::new(),
        vnodes: 64,
        health_interval_ms: 500,
    };
    let mut have_input = false;
    // The method-specific flags given, to refuse them for other methods.
    let mut given: Vec<&'static str> = Vec::new();
    while let Some(arg) = it.next() {
        if let Some(&(flag, readers)) = COMMAND_FLAGS.iter().find(|(f, _)| f == arg) {
            if !readers.contains(&command) {
                return Err(ParseError::FlagNotForCommand { flag, command });
            }
        }
        if let Some(&flag) = METHOD_FLAGS.iter().find(|&&f| f == arg) {
            given.push(flag);
        }
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError::BadValue(flag.to_string()))
        };
        match arg.as_str() {
            "-o" | "--output" => cli.output = Some(PathBuf::from(value(arg)?)),
            "--method" => {
                let v = value(arg)?;
                cli.method = Method::from_str_opt(&v).ok_or(ParseError::UnknownMethod(v))?;
            }
            "--rho" => {
                cli.rho = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
            }
            "--ratio" => {
                cli.ratio = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ParseError::BadValue(arg.clone()))?,
                );
            }
            "--seed" => {
                cli.seed = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
            }
            // For `router` the flag names a gb-serve shard address; for
            // every other command it selects the granulation index.
            "--backend" if command == Command::Router => {
                let v = value(arg)?;
                if v.is_empty() {
                    return Err(ParseError::BadValue(arg.clone()));
                }
                cli.backends.push(v);
            }
            "--backend" => {
                let v = value(arg)?;
                cli.backend =
                    GranulationBackend::from_str_opt(&v).ok_or(ParseError::UnknownBackend(v))?;
            }
            "--metric" => {
                let v = value(arg)?;
                cli.metric = Metric::parse(&v).map_err(|_| ParseError::UnknownMetric(v))?;
            }
            "--backends" => {
                let v = value(arg)?;
                let addrs: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
                if addrs.is_empty() {
                    return Err(ParseError::BadValue(arg.clone()));
                }
                cli.backends.extend(addrs);
            }
            "--vnodes" => {
                cli.vnodes = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
                if cli.vnodes == 0 {
                    return Err(ParseError::BadValue(arg.clone()));
                }
            }
            "--health-interval-ms" => {
                cli.health_interval_ms = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
                if cli.health_interval_ms == 0 {
                    return Err(ParseError::BadValue(arg.clone()));
                }
            }
            "--addr" => cli.addr = value(arg)?,
            "--k" => {
                cli.k = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
                if cli.k == 0 {
                    return Err(ParseError::BadValue(arg.clone()));
                }
            }
            "--workers" => {
                cli.workers = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
                if cli.workers == 0 {
                    return Err(ParseError::BadValue(arg.clone()));
                }
            }
            "--model-dir" => cli.model_dir = Some(PathBuf::from(value(arg)?)),
            "--model-mem-budget" => {
                cli.model_mem_budget = Some(
                    parse_bytes(&value(arg)?).ok_or_else(|| ParseError::BadValue(arg.clone()))?,
                );
            }
            "--max-versions" => {
                let n: usize = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
                if n == 0 {
                    return Err(ParseError::BadValue(arg.clone()));
                }
                cli.max_versions = Some(n);
            }
            "--preload" => {
                cli.preload = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
            }
            "--request-timeout-ms" => {
                cli.request_timeout_ms = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
            }
            "--store-fault-rate" => {
                cli.store_fault_rate = Some(
                    value(arg)?
                        .parse()
                        .map_err(|_| ParseError::BadValue(arg.clone()))?,
                );
            }
            "--store-fault-seed" => {
                cli.store_fault_seed = value(arg)?
                    .parse()
                    .map_err(|_| ParseError::BadValue(arg.clone()))?;
            }
            "--access-log" => cli.access_log = Some(value(arg)?),
            "--progress" => cli.progress = true,
            flag if flag.starts_with('-') => return Err(ParseError::UnknownFlag(flag.to_string())),
            path => {
                if have_input {
                    return Err(ParseError::UnknownFlag(path.to_string()));
                }
                cli.input = PathBuf::from(path);
                have_input = true;
            }
        }
    }
    if command == Command::Router {
        // The router never reads a CSV: its backends own the models. A
        // stray positional is a mistake, and so is an empty ring.
        if have_input {
            return Err(ParseError::UnknownFlag(
                cli.input.to_string_lossy().into_owned(),
            ));
        }
        if cli.backends.is_empty() {
            return Err(ParseError::MissingBackends);
        }
    } else if !have_input {
        return Err(ParseError::MissingInput);
    }
    if cli.command == Command::Sample && cli.output.is_none() {
        return Err(ParseError::MissingOutput);
    }
    if cli.command == Command::Sample {
        if let Some(flag) = given.into_iter().find(|f| !cli.method.reads(f)) {
            return Err(ParseError::FlagNotForMethod {
                flag,
                method: cli.method,
            });
        }
    }
    if cli.method.needs_ratio() && !cli.ratio.is_some_and(|r| r > 0.0 && r <= 1.0) {
        return Err(ParseError::BadRatio);
    }
    if cli.rho < 2 {
        return Err(ParseError::BadRho);
    }
    if cli.model_mem_budget.is_some() && cli.model_dir.is_none() {
        return Err(ParseError::BudgetWithoutDir);
    }
    if let Some(rate) = cli.store_fault_rate {
        if cli.model_dir.is_none() || !(rate > 0.0 && rate <= 1.0) {
            return Err(ParseError::BadFaultRate);
        }
    }
    if cli.max_versions.is_some() && cli.model_dir.is_none() {
        return Err(ParseError::VersionsWithoutDir);
    }
    if cli.preload > 0 && cli.model_dir.is_none() {
        return Err(ParseError::PreloadWithoutDir);
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_minimal_sample() {
        let cli = parse(&argv("sample in.csv -o out.csv")).unwrap();
        assert_eq!(cli.command, Command::Sample);
        assert_eq!(cli.input, PathBuf::from("in.csv"));
        assert_eq!(cli.output, Some(PathBuf::from("out.csv")));
        assert_eq!(cli.method, Method::Gbabs);
        assert_eq!(cli.rho, 5);
        assert_eq!(cli.seed, 42);
    }

    #[test]
    fn parses_inspect_with_rho() {
        let cli = parse(&argv("inspect data.csv --rho 9 --seed 7")).unwrap();
        assert_eq!(cli.command, Command::Inspect);
        assert_eq!(cli.rho, 9);
        assert_eq!(cli.seed, 7);
        assert!(cli.output.is_none());
    }

    #[test]
    fn parses_backend_flag() {
        let cli = parse(&argv("inspect data.csv --backend vptree")).unwrap();
        assert_eq!(cli.backend, GranulationBackend::VpTree);
        let default = parse(&argv("inspect data.csv")).unwrap();
        assert_eq!(default.backend, GranulationBackend::Auto);
        assert_eq!(
            parse(&argv("inspect data.csv --backend warp")),
            Err(ParseError::UnknownBackend("warp".into()))
        );
    }

    #[test]
    fn parses_every_method_name() {
        for (name, m) in Method::ALL {
            let line = if m.needs_ratio() {
                format!("sample in.csv -o out.csv --method {name} --ratio 0.5")
            } else {
                format!("sample in.csv -o out.csv --method {name}")
            };
            let cli = parse(&argv(&line)).unwrap();
            assert_eq!(cli.method, m, "{name}");
        }
    }

    #[test]
    fn sample_without_output_rejected() {
        assert_eq!(
            parse(&argv("sample in.csv")),
            Err(ParseError::MissingOutput)
        );
    }

    #[test]
    fn ratio_methods_require_valid_ratio() {
        assert_eq!(
            parse(&argv("sample in.csv -o o.csv --method srs")),
            Err(ParseError::BadRatio)
        );
        assert_eq!(
            parse(&argv("sample in.csv -o o.csv --method srs --ratio 1.5")),
            Err(ParseError::BadRatio)
        );
        assert!(parse(&argv("sample in.csv -o o.csv --method srs --ratio 0.3")).is_ok());
    }

    #[test]
    fn rejects_unknown_bits() {
        assert_eq!(
            parse(&argv("frobnicate in.csv")),
            Err(ParseError::UnknownCommand("frobnicate".into()))
        );
        assert_eq!(
            parse(&argv("sample in.csv -o o.csv --wat")),
            Err(ParseError::UnknownFlag("--wat".into()))
        );
        assert_eq!(
            parse(&argv("sample in.csv -o o.csv --method astrology")),
            Err(ParseError::UnknownMethod("astrology".into()))
        );
        assert_eq!(
            parse(&argv("sample in.csv extra.csv -o o.csv")),
            Err(ParseError::UnknownFlag("extra.csv".into()))
        );
        assert_eq!(parse(&argv("")), Err(ParseError::MissingCommand));
        assert_eq!(
            parse(&argv("sample -o o.csv")),
            Err(ParseError::MissingInput)
        );
    }

    #[test]
    fn parses_serve_with_options() {
        let cli = parse(&argv(
            "serve data.csv --addr 0.0.0.0:9000 --k 3 --workers 2 --rho 7",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.addr, "0.0.0.0:9000");
        assert_eq!(cli.k, 3);
        assert_eq!(cli.workers, 2);
        assert_eq!(cli.rho, 7);
        let defaults = parse(&argv("serve data.csv")).unwrap();
        assert_eq!(defaults.addr, "127.0.0.1:8080");
        assert_eq!(defaults.k, 1);
        assert_eq!(defaults.workers, 8);
    }

    #[test]
    fn removed_batching_flags_are_unknown() {
        assert_eq!(
            parse(&argv("serve data.csv --no-batch")),
            Err(ParseError::UnknownFlag("--no-batch".into()))
        );
        assert_eq!(
            parse(&argv("serve data.csv --batch-wait 300")),
            Err(ParseError::UnknownFlag("--batch-wait".into()))
        );
    }

    #[test]
    fn degenerate_rho_and_serve_values_rejected() {
        assert_eq!(
            parse(&argv("inspect data.csv --rho 1")),
            Err(ParseError::BadRho)
        );
        assert_eq!(
            parse(&argv("inspect data.csv --rho 0")),
            Err(ParseError::BadRho)
        );
        assert_eq!(
            parse(&argv("serve data.csv --k 0")),
            Err(ParseError::BadValue("--k".into()))
        );
        assert_eq!(
            parse(&argv("serve data.csv --workers 0")),
            Err(ParseError::BadValue("--workers".into()))
        );
    }

    #[test]
    fn parses_model_store_flags() {
        let cli = parse(&argv(
            "serve data.csv --model-dir /var/lib/gbabs --model-mem-budget 512M",
        ))
        .unwrap();
        assert_eq!(cli.model_dir, Some(PathBuf::from("/var/lib/gbabs")));
        assert_eq!(cli.model_mem_budget, Some(512 << 20));
        let defaults = parse(&argv("serve data.csv")).unwrap();
        assert_eq!(defaults.model_dir, None);
        assert_eq!(defaults.model_mem_budget, None);
        assert_eq!(
            parse(&argv("serve data.csv --model-mem-budget 1G")),
            Err(ParseError::BudgetWithoutDir),
            "a budget without a store has nowhere to evict to"
        );
        assert_eq!(
            parse(&argv(
                "serve data.csv --model-dir d --model-mem-budget nope"
            )),
            Err(ParseError::BadValue("--model-mem-budget".into()))
        );
    }

    #[test]
    fn parses_resilience_flags() {
        let cli = parse(&argv(
            "serve data.csv --model-dir d --request-timeout-ms 2500 \
             --store-fault-rate 0.05 --store-fault-seed 7",
        ))
        .unwrap();
        assert_eq!(cli.request_timeout_ms, 2500);
        assert_eq!(cli.store_fault_rate, Some(0.05));
        assert_eq!(cli.store_fault_seed, 7);
        let defaults = parse(&argv("serve data.csv")).unwrap();
        assert_eq!(defaults.request_timeout_ms, 10_000);
        assert_eq!(defaults.store_fault_rate, None);
        assert_eq!(defaults.store_fault_seed, 42);
        let off = parse(&argv("serve data.csv --request-timeout-ms 0")).unwrap();
        assert_eq!(off.request_timeout_ms, 0, "0 disables deadlines");
        assert_eq!(
            parse(&argv("serve data.csv --store-fault-rate 0.1")),
            Err(ParseError::BadFaultRate),
            "fault injection without a store has nothing to corrupt"
        );
        assert_eq!(
            parse(&argv("serve data.csv --model-dir d --store-fault-rate 1.5")),
            Err(ParseError::BadFaultRate)
        );
        assert_eq!(
            parse(&argv("serve data.csv --model-dir d --store-fault-rate 0")),
            Err(ParseError::BadFaultRate)
        );
        assert_eq!(
            parse(&argv("serve data.csv --request-timeout-ms soon")),
            Err(ParseError::BadValue("--request-timeout-ms".into()))
        );
    }

    #[test]
    fn parses_observability_flags() {
        let cli = parse(&argv("serve data.csv --access-log /tmp/access.jsonl")).unwrap();
        assert_eq!(cli.access_log, Some("/tmp/access.jsonl".into()));
        let stderr = parse(&argv("serve data.csv --access-log stderr")).unwrap();
        assert_eq!(stderr.access_log, Some("stderr".into()));
        let defaults = parse(&argv("serve data.csv")).unwrap();
        assert_eq!(defaults.access_log, None);
        assert!(!defaults.progress);
        assert_eq!(
            parse(&argv("serve data.csv --access-log")),
            Err(ParseError::BadValue("--access-log".into()))
        );
        let progress = parse(&argv("sample in.csv -o out.csv --progress")).unwrap();
        assert!(progress.progress);
    }

    #[test]
    fn parses_router_command() {
        let cli = parse(&argv(
            "router --backend 127.0.0.1:8081 --backend 127.0.0.1:8082 \
             --addr 0.0.0.0:8080 --vnodes 128 --health-interval-ms 250 --workers 4",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Router);
        assert_eq!(cli.backends, vec!["127.0.0.1:8081", "127.0.0.1:8082"]);
        assert_eq!(cli.addr, "0.0.0.0:8080");
        assert_eq!(cli.vnodes, 128);
        assert_eq!(cli.health_interval_ms, 250);
        assert_eq!(cli.workers, 4);

        let defaults = parse(&argv("router --backends 127.0.0.1:9001,127.0.0.1:9002")).unwrap();
        assert_eq!(defaults.backends.len(), 2);
        assert_eq!(defaults.vnodes, 64);
        assert_eq!(defaults.health_interval_ms, 500);
        assert_eq!(defaults.addr, "127.0.0.1:8080");
        assert_eq!(defaults.request_timeout_ms, 10_000);
        assert_eq!(defaults.access_log, None);

        // Both spellings compose.
        let mixed = parse(&argv("router --backends a:1,b:2 --backend c:3")).unwrap();
        assert_eq!(mixed.backends, vec!["a:1", "b:2", "c:3"]);
    }

    #[test]
    fn router_rejects_bad_shapes() {
        assert_eq!(parse(&argv("router")), Err(ParseError::MissingBackends));
        assert_eq!(
            parse(&argv("router --vnodes 32")),
            Err(ParseError::MissingBackends)
        );
        assert_eq!(
            parse(&argv("router --backend a:1 data.csv")),
            Err(ParseError::UnknownFlag("data.csv".into())),
            "the router takes no input CSV"
        );
        assert_eq!(
            parse(&argv("router --backend a:1 --vnodes 0")),
            Err(ParseError::BadValue("--vnodes".into()))
        );
        assert_eq!(
            parse(&argv("router --backend a:1 --health-interval-ms 0")),
            Err(ParseError::BadValue("--health-interval-ms".into()))
        );
        assert_eq!(
            parse(&argv("router --backends ,")),
            Err(ParseError::BadValue("--backends".into()))
        );
        // Outside `router`, --backend still selects the granulation index.
        assert_eq!(
            parse(&argv("inspect data.csv --backend 127.0.0.1:8081")),
            Err(ParseError::UnknownBackend("127.0.0.1:8081".into()))
        );
    }

    #[test]
    fn parses_metric_flag() {
        let cli = parse(&argv("inspect data.csv --metric manhattan")).unwrap();
        assert_eq!(cli.metric, Metric::Manhattan);
        let cosine = parse(&argv("serve data.csv --metric cosine")).unwrap();
        assert_eq!(cosine.metric, Metric::Cosine);
        let l2 = parse(&argv("sample in.csv -o o.csv --metric l2")).unwrap();
        assert_eq!(l2.metric, Metric::SqEuclidean, "alias accepted");
        let defaults = parse(&argv("inspect data.csv")).unwrap();
        assert_eq!(defaults.metric, Metric::SqEuclidean);
        assert_eq!(
            parse(&argv("inspect data.csv --metric hamming")),
            Err(ParseError::UnknownMetric("hamming".into()))
        );
    }

    #[test]
    fn parses_preload_flag() {
        let cli = parse(&argv("serve data.csv --model-dir d --preload 3")).unwrap();
        assert_eq!(cli.preload, 3);
        let defaults = parse(&argv("serve data.csv")).unwrap();
        assert_eq!(defaults.preload, 0);
        assert_eq!(
            parse(&argv("serve data.csv --preload 3")),
            Err(ParseError::PreloadWithoutDir),
            "warming needs a store to warm from"
        );
        assert_eq!(
            parse(&argv("serve data.csv --model-dir d --preload some")),
            Err(ParseError::BadValue("--preload".into()))
        );
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("1048576"), Some(1 << 20));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("64KB"), Some(64 << 10));
        assert_eq!(parse_bytes("512M"), Some(512 << 20));
        assert_eq!(parse_bytes("2gb"), Some(2 << 30));
        assert_eq!(parse_bytes("0"), None, "a zero budget is a typo");
        assert_eq!(parse_bytes("-5M"), None);
        assert_eq!(parse_bytes("lots"), None);
    }

    #[test]
    fn sample_refuses_flags_its_method_ignores() {
        for (line, flag, method) in [
            ("--method smote --metric cosine", "--metric", Method::Smote),
            ("--method ggbs --backend vptree", "--backend", Method::Ggbs),
            ("--method igbs --backend kdtree", "--backend", Method::Igbs),
            ("--method tomek --rho 3", "--rho", Method::Tomek),
            ("--method enn --progress", "--progress", Method::Enn),
            ("--method srs --ratio 0.5 --rho 3", "--rho", Method::Srs),
            ("--method adasyn --ratio 0.5", "--ratio", Method::Adasyn),
            ("--ratio 0.5", "--ratio", Method::Gbabs),
        ] {
            let err = parse(&argv(&format!("sample in.csv -o o.csv {line}"))).unwrap_err();
            assert_eq!(err, ParseError::FlagNotForMethod { flag, method }, "{line}");
            let message = err.to_string();
            assert!(message.contains(flag), "{message}");
            assert!(message.contains(method.name()), "{message}");
        }
    }

    #[test]
    fn gbabs_and_ratio_method_flags_still_parse() {
        for line in [
            "sample in.csv -o o.csv --rho 3 --backend kdtree --metric cosine --progress",
            "sample in.csv -o o.csv --method gbabs --backend vptree --metric l1",
            "sample in.csv -o o.csv --method stratified --ratio 0.25",
            "inspect in.csv --rho 3 --backend brute --metric manhattan",
            "serve in.csv --rho 4 --backend vptree --metric cosine",
        ] {
            assert!(parse(&argv(line)).is_ok(), "{line}");
        }
    }

    /// A command line of `command` that parses, plus `flag` with a value
    /// it accepts (and whatever else that flag needs).
    fn line_with(command: Command, flag: &str) -> String {
        let base = match command {
            Command::Sample => "sample in.csv -o o.csv",
            Command::Inspect => "inspect in.csv",
            Command::Serve => "serve in.csv",
            Command::Router => "router --backend a:1",
        };
        let value = match flag {
            "-o" | "--output" => "o.csv",
            "--method" => "gbabs",
            "--ratio" => "0.5 --method srs",
            "--backend" if command == Command::Router => "b:2",
            "--backend" => "kdtree",
            "--metric" => "cosine",
            "--progress" => "",
            "--addr" => "127.0.0.1:9",
            "--access-log" => "stderr",
            "--model-dir" => "d",
            "--model-mem-budget" => "1M --model-dir d",
            "--max-versions" | "--preload" => "4 --model-dir d",
            "--store-fault-rate" => "0.1 --model-dir d",
            "--backends" => "b:2,c:3",
            _ => "3",
        };
        format!("{base} {flag} {value}")
    }

    #[test]
    fn commands_refuse_flags_they_do_not_read() {
        for (line, flag, command) in [
            (
                "inspect t.csv --ratio 0.5 --progress --method smote",
                "--ratio",
                Command::Inspect,
            ),
            ("inspect t.csv -o x.csv", "-o", Command::Inspect),
            ("inspect t.csv --method srs", "--method", Command::Inspect),
            (
                "sample t.csv -o y.csv --workers 3 --addr 1.2.3.4:5 --k 7 --vnodes 3",
                "--workers",
                Command::Sample,
            ),
            (
                "router --backend 127.0.0.1:9 --rho 3 --method smote -o z.csv --model-dir d",
                "--rho",
                Command::Router,
            ),
            ("serve t.csv --backends a:1", "--backends", Command::Serve),
            ("serve t.csv --progress", "--progress", Command::Serve),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(
                err,
                ParseError::FlagNotForCommand { flag, command },
                "{line}"
            );
        }
        // Every flag, to every command that does not read it.
        for (flag, readers) in COMMAND_FLAGS {
            for command in [
                Command::Sample,
                Command::Inspect,
                Command::Serve,
                Command::Router,
            ] {
                let line = line_with(command, flag);
                if readers.contains(&command) {
                    assert!(parse(&argv(&line)).is_ok(), "{line}");
                    continue;
                }
                let err = parse(&argv(&line)).unwrap_err();
                assert_eq!(
                    err,
                    ParseError::FlagNotForCommand { flag, command },
                    "{line}"
                );
                let message = err.to_string();
                assert!(message.contains(flag), "{message}");
                assert!(
                    message.contains(&format!("gbabs {}", command.name())),
                    "{message}"
                );
            }
        }
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_reads() {
        let mut listed: Vec<(Command, Vec<String>)> = Vec::new();
        for line in USAGE.lines().take_while(|l| !l.is_empty()).skip(1) {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"gbabs") {
                let name = words.nth(1).expect("a command");
                let command = [
                    Command::Sample,
                    Command::Inspect,
                    Command::Serve,
                    Command::Router,
                ]
                .into_iter()
                .find(|c| c.name() == name)
                .expect("a known command");
                listed.push((command, Vec::new()));
            }
            let flags = &mut listed.last_mut().expect("a command line first").1;
            for word in words {
                let flag = word.trim_start_matches('[').trim_end_matches(']');
                if flag.starts_with('-') && !flags.iter().any(|f| f == flag) {
                    flags.push(flag.to_string());
                }
            }
        }
        assert_eq!(listed.len(), 4);
        for (command, flags) in &listed {
            let mut want: Vec<&str> = COMMAND_FLAGS
                .iter()
                .filter(|(f, readers)| readers.contains(command) && *f != "--output")
                .map(|(f, _)| *f)
                .collect();
            let mut got: Vec<&str> = flags.iter().map(String::as_str).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{}", command.name());
            for flag in flags {
                let line = line_with(*command, flag);
                assert!(parse(&argv(&line)).is_ok(), "{line}");
            }
        }
    }

    /// The `gbabs` command lines in `text` (`\`-continued lines joined;
    /// quotes, comments, redirections and background `&` dropped; shell
    /// variables replaced by a placeholder).
    fn invocations(text: &str) -> Vec<String> {
        let joined = text.replace("\\\n", " ");
        let mut out = Vec::new();
        for line in joined.lines().filter(|l| !l.trim_start().starts_with('#')) {
            let Some(at) = [
                "gbabs sample",
                "gbabs inspect",
                "gbabs serve",
                "gbabs router",
                "gbabs\" ",
            ]
            .iter()
            .filter_map(|p| line.find(p))
            .min() else {
                continue;
            };
            let rest = &line[at + "gbabs".len()..];
            let rest = rest.trim_start_matches('"');
            let end = rest.find(['#', '&', '>', '|', ';']).unwrap_or(rest.len());
            let words: Vec<String> = rest[..end]
                .split_whitespace()
                .map(|w| {
                    let w = w.trim_matches('"');
                    if w.starts_with('$') {
                        "x".to_string()
                    } else {
                        w.to_string()
                    }
                })
                .collect();
            out.push(words.join(" "));
        }
        out
    }

    #[test]
    fn readme_and_ci_invocations_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
        // Only fenced code: the prose names commands without arguments.
        let fenced: String = readme
            .split("```")
            .skip(1)
            .step_by(2)
            .collect::<Vec<_>>()
            .join("\n");
        let mut lines = invocations(&fenced);
        let mut scripts: Vec<_> = std::fs::read_dir(root.join("ci"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "sh"))
            .collect();
        scripts.sort();
        for script in scripts {
            lines.extend(invocations(&std::fs::read_to_string(script).unwrap()));
        }
        assert!(lines.len() >= 5, "{lines:?}");
        for line in &lines {
            assert!(
                parse(&argv(line)).is_ok(),
                "{line}: {:?}",
                parse(&argv(line))
            );
        }
    }

    #[test]
    fn bad_numeric_values_rejected() {
        assert_eq!(
            parse(&argv("inspect in.csv --rho banana")),
            Err(ParseError::BadValue("--rho".into()))
        );
        assert_eq!(
            parse(&argv("inspect in.csv --seed")),
            Err(ParseError::BadValue("--seed".into()))
        );
    }
}
