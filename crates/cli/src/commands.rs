//! Subcommand implementations.

use crate::args::{Cli, Command, Method};
use gb_dataset::io::{read_csv, write_csv, CsvOptions};
use gb_dataset::Dataset;
use gb_sampling::{
    Adasyn, BorderlineSmote, CondensedNn, EditedNn, Ggbs, Igbs, Smote, SmoteEnn, SmoteTomek, Srs,
    Stratified, Systematic, TomekLinks,
};
use gbabs::{gbabs, GbabsSampler, RdGbgConfig, Sampler};
use std::fmt::Write as _;

/// Builds the requested sampler. `ratio` must be validated by the parser
/// for the ratio-based methods. `backend` (the neighbour index:
/// output-invariant, speed only) and `metric` reach the GBABS granulation
/// only; the parser refuses them for every other method.
#[must_use]
pub fn build_sampler(
    method: Method,
    rho: usize,
    ratio: Option<f64>,
    backend: gb_dataset::index::GranulationBackend,
    metric: gb_dataset::Metric,
) -> Box<dyn Sampler> {
    match method {
        Method::Gbabs => Box::new(GbabsSampler {
            density_tolerance: rho,
            backend,
            metric,
        }),
        Method::Ggbs => Box::new(Ggbs::default()),
        Method::Igbs => Box::new(Igbs::default()),
        Method::Srs => Box::new(Srs::new(ratio.expect("parser enforces ratio"))),
        Method::Stratified => Box::new(Stratified::new(ratio.expect("parser enforces ratio"))),
        Method::Systematic => Box::new(Systematic::new(ratio.expect("parser enforces ratio"))),
        Method::Smote => Box::new(Smote::default()),
        Method::BorderlineSmote => Box::new(BorderlineSmote::default()),
        Method::Adasyn => Box::new(Adasyn::default()),
        Method::Tomek => Box::new(TomekLinks::default()),
        Method::Cnn => Box::new(CondensedNn::new(16)),
        Method::Enn => Box::new(EditedNn::default()),
        Method::SmoteTomek => Box::new(SmoteTomek::default()),
        Method::SmoteEnn => Box::new(SmoteEnn::default()),
    }
}

/// Runs a parsed command line. Returns the human-readable report that
/// `main` prints (side effects: reads the input CSV, and for `sample`
/// writes the output CSV; `serve` never returns on success).
///
/// # Errors
/// Any I/O or CSV-format failure, and degenerate inputs (zero data rows,
/// a single class where sampling needs two) — stringified for the user
/// instead of panicking.
pub fn run(cli: &Cli) -> Result<String, String> {
    // The router fronts gb-serve backends and never reads a CSV.
    if cli.command == Command::Router {
        return router(cli);
    }
    let data = read_csv(&cli.input, &CsvOptions::default())
        .map_err(|e| format!("{}: {e}", cli.input.display()))?;
    match cli.command {
        Command::Sample => sample(cli, &data),
        Command::Inspect => Ok(inspect(cli, &data)),
        Command::Serve => serve(cli, &data),
        Command::Router => unreachable!("handled above"),
    }
}

fn sample(cli: &Cli, data: &Dataset) -> Result<String, String> {
    if data.n_classes() < 2 && cli.method == Method::Gbabs {
        return Err(format!(
            "{}: all {} rows share one class label; borderline sampling \
             needs at least 2 classes",
            cli.input.display(),
            data.n_samples()
        ));
    }
    let sampler = build_sampler(cli.method, cli.rho, cli.ratio, cli.backend, cli.metric);
    let out = if cli.progress {
        // Instrumented path (the parser admits --progress for gbabs only):
        // same algorithm, with per-iteration progress events printed to
        // stderr. The sink only observes — the sampled output is
        // bit-identical to the uninstrumented run.
        let cfg = RdGbgConfig {
            density_tolerance: cli.rho,
            seed: cli.seed,
            backend: cli.backend,
            metric: cli.metric,
            ..RdGbgConfig::default()
        };
        let mut sink = |e: &gbabs::ProgressEvent| eprintln!("{e}");
        let res = gbabs::gbabs_with_progress(data, &cfg, Some(&mut sink));
        gbabs::SampleResult {
            dataset: res.sampled_dataset(data),
            kept_rows: Some(res.sampled_rows),
        }
    } else {
        sampler.sample(data, cli.seed)
    };
    if out.dataset.n_samples() == 0 {
        return Err(format!(
            "{} produced an empty sample; nothing written",
            sampler.name()
        ));
    }
    let path = cli.output.as_ref().expect("parser enforces output");
    write_csv(&out.dataset, path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: {} rows -> {} rows (ratio {:.3})",
        sampler.name(),
        data.n_samples(),
        out.dataset.n_samples(),
        out.dataset.n_samples() as f64 / data.n_samples().max(1) as f64,
    );
    let _ = writeln!(report, "wrote {}", path.display());
    Ok(report)
}

fn inspect(cli: &Cli, data: &Dataset) -> String {
    let cfg = RdGbgConfig {
        density_tolerance: cli.rho,
        seed: cli.seed,
        backend: cli.backend,
        metric: cli.metric,
        ..RdGbgConfig::default()
    };
    let summary = gb_dataset::summary::describe(data);
    let result = gbabs(data, &cfg);
    let balls = &result.model.balls;
    let singleton = balls.iter().filter(|b| b.radius == 0.0).count();
    let largest = balls
        .iter()
        .map(gbabs::GranularBall::len)
        .max()
        .unwrap_or(0);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: {} samples x {} features, {} classes (IR {:.2})",
        data.name(),
        data.n_samples(),
        data.n_features(),
        data.n_classes(),
        data.imbalance_ratio(),
    );
    let _ = writeln!(report, "class counts: {:?}", summary.class_counts);
    let _ = writeln!(
        report,
        "{:<6} {:<11} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "col", "kind", "min", "max", "mean", "std", "distinct"
    );
    for c in &summary.columns {
        let _ = writeln!(
            report,
            "f{:<5} {:<11} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>9}{}",
            c.index,
            format!("{:?}", c.kind),
            c.min,
            c.max,
            c.mean,
            c.std,
            c.distinct,
            if c.is_constant() { "  (constant)" } else { "" },
        );
    }
    let _ = writeln!(
        report,
        "RD-GBG (rho = {}): {} balls ({} singleton, largest {}), {} iterations",
        cli.rho,
        balls.len(),
        singleton,
        largest,
        result.model.iterations,
    );
    let _ = writeln!(
        report,
        "noise detected: {} rows ({:.1}%)",
        result.model.noise.len(),
        100.0 * result.model.noise.len() as f64 / data.n_samples().max(1) as f64,
    );
    let _ = writeln!(
        report,
        "borderline sample: {} rows (ratio {:.3})",
        result.sampled_rows.len(),
        result.sampling_ratio(data),
    );
    report
}

/// `gbabs serve`: granulate the input once, register it as model
/// `default`, and serve predictions until the process is killed. With
/// `--model-dir` the registry is disk-backed: models persisted by earlier
/// runs come back (cold) after a restart, `POST /models/{name}` uploads
/// survive, and `--model-mem-budget` bounds resident memory via LRU
/// eviction.
///
/// # Errors
/// Bind failures, store failures, and degenerate inputs, stringified.
fn serve(cli: &Cli, data: &Dataset) -> Result<String, String> {
    use gb_serve::registry::LoadOptions;
    use gb_serve::{ModelRegistry, ModelStore, ServeConfig, Server};
    use std::sync::Arc;

    let cfg = RdGbgConfig {
        density_tolerance: cli.rho,
        seed: cli.seed,
        backend: cli.backend,
        metric: cli.metric,
        ..RdGbgConfig::default()
    };
    let model = gbabs::rd_gbg(data, &cfg);
    let registry = match &cli.model_dir {
        Some(dir) => {
            let store =
                ModelStore::open(dir).map_err(|e| format!("--model-dir {}: {e}", dir.display()))?;
            let (registry, scan) = ModelRegistry::with_store(store, cli.model_mem_budget)
                .map_err(|e| format!("--model-dir {}: scan failed: {e}", dir.display()))?;
            println!(
                "model store {}: {} persisted model(s) ready for lazy reload{}",
                dir.display(),
                scan.found.len(),
                match cli.model_mem_budget {
                    Some(b) => format!(", resident budget {b} bytes"),
                    None => String::new(),
                },
            );
            for q in &scan.quarantined {
                eprintln!("warning: quarantined corrupt store file {}", q.display());
            }
            Arc::new(registry)
        }
        None => Arc::new(ModelRegistry::new()),
    };
    registry.set_max_versions(cli.max_versions);
    if let Some(n) = cli.max_versions {
        println!("version retention: newest {n} store version(s) per tenant");
    }
    let options = LoadOptions {
        k: cli.k,
        n_classes: Some(data.n_classes()),
        backend: cli.backend,
        ..LoadOptions::default()
    };
    // `publish` persists "default" when a store is attached (so a restart
    // with the same --model-dir can serve it before re-granulating
    // finishes); without a store it is a plain in-memory load.
    let served = registry
        .publish("default", &model, &options)
        .map_err(|e| format!("{}: {e}", cli.input.display()))?;
    // Armed only after the boot publish above, so the "default" model is
    // always persisted cleanly before chaos begins.
    if let Some(rate) = cli.store_fault_rate {
        let store = registry
            .store()
            .ok_or_else(|| "--store-fault-rate requires --model-dir".to_string())?;
        store.set_fault_policy(Some(gb_serve::FaultPolicy::new(rate, cli.store_fault_seed)));
        println!(
            "store fault injection ARMED: rate {rate}, seed {} (chaos testing only)",
            cli.store_fault_seed
        );
    }
    let server = Server::bind(
        ServeConfig {
            addr: cli.addr.clone(),
            workers: cli.workers,
            request_timeout: std::time::Duration::from_millis(cli.request_timeout_ms),
            access_log: cli.access_log.clone(),
            preload: cli.preload,
            ..ServeConfig::default()
        },
        registry,
    )
    .map_err(|e| format!("bind {}: {e}", cli.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving '{}' ({} balls over {} rows, k = {}, metric {}, backend {}) on http://{addr}",
        data.name(),
        served.stats.n_balls,
        data.n_samples(),
        cli.k,
        cli.metric.name(),
        cli.backend,
    );
    if cli.preload > 0 {
        println!(
            "preload: warming up to {} most-recently-used tenant(s) in the background",
            cli.preload
        );
    }
    println!(
        "endpoints: POST /predict | POST /sample | POST/DELETE/GET /models/{{name}} | \
         POST /models/{{name}}/rows /models/{{name}}/rollback | \
         GET /model /models /healthz /readyz /metrics /debug/requests"
    );
    if let Some(target) = &cli.access_log {
        println!("access log: one JSON line per request -> {target}");
    }
    let handle = server.start().map_err(|e| e.to_string())?;
    handle.wait();
    Ok(String::new())
}

/// `gbabs router`: front N gb-serve backends with a consistent-hash
/// sharding router. Tenants are partitioned over the backends, publishes
/// replicate to every healthy shard, and unhealthy backends are routed
/// around (see `docs/CLUSTER.md`). Runs until the process is killed.
///
/// # Errors
/// Bind failures and an empty backend list, stringified.
fn router(cli: &Cli) -> Result<String, String> {
    use gb_serve::{Router, RouterConfig};

    let config = RouterConfig {
        addr: cli.addr.clone(),
        backends: cli.backends.clone(),
        workers: cli.workers,
        vnodes: cli.vnodes,
        health_interval: std::time::Duration::from_millis(cli.health_interval_ms),
        request_timeout: std::time::Duration::from_millis(cli.request_timeout_ms),
        access_log: cli.access_log.clone(),
        ..RouterConfig::default()
    };
    let router = Router::bind(config).map_err(|e| format!("bind {}: {e}", cli.addr))?;
    let addr = router.local_addr().map_err(|e| e.to_string())?;
    // One synchronous health pass so the first requests don't race the
    // background prober.
    router.warm_up();
    println!(
        "routing {} backend(s) ({} vnodes each, /readyz every {} ms) on http://{addr}",
        cli.backends.len(),
        cli.vnodes,
        cli.health_interval_ms,
    );
    for backend in &cli.backends {
        println!("  backend http://{backend}");
    }
    println!(
        "endpoints: POST /predict | POST /sample | POST/DELETE /models/{{name}} | \
         GET /model /models /cluster /healthz /readyz /metrics /debug/requests"
    );
    if let Some(target) = &cli.access_log {
        println!("access log: one JSON line per request -> {target}");
    }
    let handle = router.start().map_err(|e| e.to_string())?;
    handle.wait();
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use gb_dataset::catalog::DatasetId;
    use std::path::PathBuf;

    fn write_fixture(name: &str) -> PathBuf {
        let data = DatasetId::S5.generate(0.05, 3);
        let path = std::env::temp_dir().join(name);
        write_csv(&data, &path).expect("fixture");
        path
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn sample_roundtrip_writes_smaller_csv() {
        let input = write_fixture("gbabs_cli_test_in.csv");
        let output = std::env::temp_dir().join("gbabs_cli_test_out.csv");
        let cli = parse(&argv(&format!(
            "sample {} -o {} --rho 5 --seed 1",
            input.display(),
            output.display()
        )))
        .unwrap();
        let report = run(&cli).expect("sample runs");
        assert!(report.contains("GBABS"), "{report}");
        let sampled = read_csv(&output, &CsvOptions::default()).unwrap();
        let original = read_csv(&input, &CsvOptions::default()).unwrap();
        assert!(sampled.n_samples() < original.n_samples());
        assert_eq!(sampled.n_features(), original.n_features());
    }

    #[test]
    fn every_method_builds_and_runs() {
        let input = write_fixture("gbabs_cli_methods_in.csv");
        for (name, m) in Method::ALL {
            let output = std::env::temp_dir().join(format!("gbabs_cli_m_{name}.csv"));
            let ratio = if m.needs_ratio() { "--ratio 0.5" } else { "" };
            let cli = parse(&argv(&format!(
                "sample {} -o {} --method {name} {ratio}",
                input.display(),
                output.display()
            )))
            .unwrap();
            let report = run(&cli).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.contains("rows"), "{name}: {report}");
        }
    }

    #[test]
    fn all_backends_write_identical_samples() {
        let input = write_fixture("gbabs_cli_backend_in.csv");
        let mut outputs = Vec::new();
        for backend in ["brute", "kdtree", "vptree"] {
            let output = std::env::temp_dir().join(format!("gbabs_cli_backend_{backend}.csv"));
            let cli = parse(&argv(&format!(
                "sample {} -o {} --backend {backend} --seed 7",
                input.display(),
                output.display()
            )))
            .unwrap();
            run(&cli).expect("backend sample runs");
            outputs.push(std::fs::read_to_string(&output).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "brute vs kdtree CSV");
        assert_eq!(outputs[0], outputs[2], "brute vs vptree CSV");
    }

    #[test]
    fn inspect_reports_granulation() {
        let input = write_fixture("gbabs_cli_inspect_in.csv");
        let cli = parse(&argv(&format!("inspect {}", input.display()))).unwrap();
        let report = run(&cli).expect("inspect runs");
        assert!(report.contains("RD-GBG"), "{report}");
        assert!(report.contains("borderline sample"), "{report}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let cli = parse(&argv("inspect /nonexistent/nope.csv")).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("nope.csv"), "{err}");
    }

    #[test]
    fn empty_csv_is_a_clean_error() {
        let path = std::env::temp_dir().join("gbabs_cli_empty.csv");
        std::fs::write(&path, "f0,f1,label\n").unwrap();
        let cli = parse(&argv(&format!("inspect {}", path.display()))).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("no data rows"), "{err}");
    }

    #[test]
    fn single_class_sample_is_a_clean_error() {
        let path = std::env::temp_dir().join("gbabs_cli_oneclass.csv");
        std::fs::write(&path, "f0,label\n1.0,a\n2.0,a\n3.0,a\n").unwrap();
        let out = std::env::temp_dir().join("gbabs_cli_oneclass_out.csv");
        let cli = parse(&argv(&format!(
            "sample {} -o {}",
            path.display(),
            out.display()
        )))
        .unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("one class"), "{err}");
        assert!(!out.exists() || std::fs::read_to_string(&out).unwrap().is_empty());
        // inspect still works on single-class data (report, no sampling)
        let cli = parse(&argv(&format!("inspect {}", path.display()))).unwrap();
        let report = run(&cli).expect("inspect runs on single-class input");
        assert!(report.contains("RD-GBG"), "{report}");
    }
}
