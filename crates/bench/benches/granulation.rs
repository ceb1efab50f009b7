//! RD-GBG end-to-end across `NeighborIndex` backends and dataset sizes —
//! the ISSUE-1 tentpole bench. All backends produce bit-identical models
//! (property-tested in `tests/granulation_props.rs`), so this measures pure
//! index asymptotics: the brute scan is O(n²·d) over the run, the tree
//! backends are sub-quadratic while pruning holds.
//!
//! Two regimes per size n ∈ {1k, 10k, 50k}, both on the 2-d banana
//! surrogate (the paper's S5 shape):
//!
//! * `clean` — the raw generator output; few balls, index advantage is
//!   modest because `U` collapses after a handful of large balls;
//! * `noise10` — 10% injected class noise (the paper's evaluation regime);
//!   ball count grows ~linearly with n and the index advantage is an order
//!   of magnitude.
//!
//! Brute in the noisy 50k cell takes ~8 s per granulation, so it is
//! excluded from the repeated-measurement loop; its recorded number in
//! BENCH_GRANULATION.json comes from a single timed run (see that file's
//! `protocol` note).
//!
//! One cell runs at the paper's widest set instead, where the distance
//! kernels rather than tree traversal do most of the work:
//! `rdgbg_usps/auto/p256` granulates a 1,162-row stratified sample of the
//! S13 USPS surrogate (p = 256) with 10% class noise, drawn the way the
//! end-to-end benchmark's `offline-usps-256d` workload draws its inputs.
//!
//! `rdgbg_s8/auto/p16` granulates what `gbabs serve` boots on in the
//! end-to-end benchmark's `serve-*` workloads: the S8 Dry Bean surrogate
//! (p = 16, clean) less a 10% stratified holdout, 12,250 rows read back
//! from CSV, under `Auto` (the KD-tree), where RD-GBG fetches the hood
//! lists of every row left at its first ball-less iteration in one
//! self-join.
//!
//! `hood_fetch` times that fetch alone on the same split: every row's
//! `k′ = 12` list (ρ = 5), once from `self_join` (`join/s8`) and once
//! from one KD-tree `k_nearest_sq` per row on the thread pool
//! (`kdtree_rows/s8`), the per-row fetch the join replaced. Their ratio
//! is gated in `ci/bench-thresholds.json`.
//!
//! `sample_pipeline` times what `gbabs sample IN -o OUT` does, in process:
//! `read_csv_str` of the input's CSV text, GBABS (ρ = 5, seed 42, `Auto`),
//! and `write_csv_str` of the sample. Its cells are the end-to-end
//! benchmark's two offline inputs: `usps/p256` (the `rdgbg_usps` sample)
//! and `banana/n50000` (input 0 of run seed 1 of `offline-banana-2d`).
//! Run with:
//!
//! ```text
//! cargo bench -p gb-bench --bench granulation
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_dataset::catalog::DatasetId;
use gb_dataset::index::{self_join, GranulationBackend};
use gb_dataset::io::{read_csv_str, write_csv_str, CsvOptions};
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::derive_seed;
use gb_dataset::split::{stratified_holdout, stratified_subsample};
use gb_dataset::synth::banana::BananaSpec;
use gb_sampling::gbg_kdiv::{k_division_gbg, KDivConfig};
use gb_sampling::gbg_pp::{gbg_pp, GbgPpConfig};
use gbabs::{rd_gbg, GbabsSampler, RdGbgConfig, Sampler};
use rayon::prelude::*;
use std::hint::black_box;

fn banana(n: usize) -> gb_dataset::Dataset {
    BananaSpec {
        n_samples: n,
        ..BananaSpec::default()
    }
    .generate(42)
}

fn bench_granulation_backends(c: &mut Criterion) {
    for (regime, noise) in [("clean", 0.0f64), ("noise10", 0.10)] {
        let mut group = c.benchmark_group(format!("rdgbg_{regime}"));
        group.sample_size(10);
        group.warm_up_time(std::time::Duration::from_millis(300));
        group.measurement_time(std::time::Duration::from_secs(2));
        for n in [1_000usize, 10_000, 50_000] {
            let clean = banana(n);
            let data = if noise > 0.0 {
                inject_class_noise(&clean, noise, 1).0
            } else {
                clean
            };
            let label = format!("n{n}");
            for backend in GranulationBackend::CONCRETE {
                // Brute at 50k is quadratic-slow (~seconds per granulation);
                // keep the repeated loop tractable and record its number
                // out-of-band (BENCH_GRANULATION.json).
                if backend == GranulationBackend::Brute && n >= 50_000 {
                    continue;
                }
                let cfg = RdGbgConfig {
                    seed: 7,
                    ..RdGbgConfig::default()
                }
                .with_backend(backend);
                group.bench_with_input(BenchmarkId::new(backend.name(), &label), &data, |b, d| {
                    b.iter(|| black_box(rd_gbg(d, &cfg)));
                });
            }
        }
        group.finish();
    }
}

/// Input 0 of run seed 1 of the end-to-end benchmark's
/// `offline-usps-256d` workload: its fixed S13 population, a stratified
/// 1,162-row sample, and 10% class noise, from the same seed streams.
fn usps_sample() -> gb_dataset::Dataset {
    const POPULATION_SEED: u64 = 0x5EED_0813;
    const USPS_STREAM: u64 = 2;
    const NOISE_STREAM: u64 = 3;
    let mix = |seed: u64, stream: u64| derive_seed(derive_seed(seed, stream), 0);
    let population = DatasetId::S13.generate(1.0, POPULATION_SEED);
    let s = mix(1, USPS_STREAM);
    let rows = stratified_subsample(&population, 1_162, s);
    inject_class_noise(&population.select(&rows), 0.10, mix(s, NOISE_STREAM)).0
}

fn bench_granulation_usps(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdgbg_usps");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let data = usps_sample();
    // `auto` (the gated cell) is what `gbabs sample` runs: brute force
    // with each iteration's density hoods fetched in one blocked sweep.
    // The VP-tree cell, `auto`'s pick before that, is the reference of
    // the ratio gate in ci/bench-thresholds.json.
    let backends = std::iter::once(GranulationBackend::Auto).chain(GranulationBackend::CONCRETE);
    for backend in backends {
        let cfg = RdGbgConfig {
            seed: 7,
            ..RdGbgConfig::default()
        }
        .with_backend(backend);
        group.bench_with_input(BenchmarkId::new(backend.name(), "p256"), &data, |b, d| {
            b.iter(|| black_box(rd_gbg(d, &cfg)));
        });
    }
    group.finish();
}

/// The training split the end-to-end benchmark's `serve-*` workloads boot
/// `gbabs serve` on at run seed 1: the fixed S8 population less a 10%
/// stratified holdout, through the CSV text the server reads.
fn s8_serve_split() -> gb_dataset::Dataset {
    const POPULATION_SEED: u64 = 0x5EED_0813;
    const SPLIT_STREAM: u64 = 4;
    let population = DatasetId::S8.generate(1.0, POPULATION_SEED);
    let (train, _) = stratified_holdout(
        &population,
        0.10,
        derive_seed(derive_seed(1, SPLIT_STREAM), 0),
    );
    let text = write_csv_str(&population.select(&train));
    read_csv_str(&text, &CsvOptions::default()).expect("a well-formed split")
}

fn bench_granulation_s8(c: &mut Criterion) {
    let mut group = c.benchmark_group("rdgbg_s8");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let cfg = RdGbgConfig {
        seed: 42,
        ..RdGbgConfig::default()
    };
    group.bench_with_input(
        BenchmarkId::new("auto", "p16"),
        &s8_serve_split(),
        |b, d| {
            b.iter(|| black_box(rd_gbg(d, &cfg)));
        },
    );
    group.finish();
}

fn bench_hood_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hood_fetch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let data = s8_serve_split();
    let index = GranulationBackend::Auto.build(&data);
    let rows: Vec<usize> = (0..data.n_samples()).collect();
    // RD-GBG's list width at the default ρ = 5: `2ρ + 2`.
    let k = 12;
    group.bench_with_input(BenchmarkId::new("join", "s8"), &rows, |b, rows| {
        b.iter(|| black_box(self_join(index.as_ref(), &data, rows, k)));
    });
    group.bench_with_input(BenchmarkId::new("kdtree_rows", "s8"), &rows, |b, rows| {
        b.iter(|| {
            let lists: Vec<_> = rows
                .par_iter()
                .map(|&row| index.k_nearest_sq(data.row(row), k, Some(row)))
                .collect();
            black_box(lists)
        });
    });
    group.finish();
}

/// Input 0 of run seed 1 of the end-to-end benchmark's
/// `offline-banana-2d` workload: 50,000 rows of its banana shape with 10%
/// class noise, from the same seed streams.
fn banana_e2e_input() -> gb_dataset::Dataset {
    const BANANA_STREAM: u64 = 1;
    const NOISE_STREAM: u64 = 3;
    let mix = |seed: u64, stream: u64| derive_seed(derive_seed(seed, stream), 0);
    let s = mix(1, BANANA_STREAM);
    let clean = BananaSpec {
        n_samples: 50_000,
        noise: 0.12,
        imbalance_ratio: 1.23,
        scatter: 0.05,
    }
    .generate(s);
    inject_class_noise(&clean, 0.10, mix(s, NOISE_STREAM)).0
}

fn bench_sample_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample_pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, data) in [
        ("usps/p256", usps_sample()),
        ("banana/n50000", banana_e2e_input()),
    ] {
        let text = write_csv_str(&data);
        let (input, cell) = name.split_once('/').expect("input/cell");
        group.bench_with_input(BenchmarkId::new(input, cell), &text, |b, text| {
            b.iter(|| {
                let data = read_csv_str(text, &CsvOptions::default()).expect("a well-formed input");
                let sample = GbabsSampler::default().sample(&data, 42);
                black_box(write_csv_str(&sample.dataset))
            });
        });
    }
    group.finish();
}

/// The granulation-lineage baselines on the shared query layer (ISSUE-5
/// tentpole): GBG++ across every backend — its attention peel is the
/// distance-ordered index query, so the backend changes the asymptotics —
/// plus k-division (whose batched Lloyd assignment is backend-invariant)
/// as the lineage's fast reference. Same regime as the RD-GBG bench:
/// 2-d banana + 10% class noise, n ∈ {10k, 50k}. The committed ratio gate
/// (`ci/bench-thresholds.json`) requires the indexed GBG++ to stay ≥ 2×
/// faster than the brute backend at n = 50k.
fn bench_lineage_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("lineage_gbgpp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [10_000usize, 50_000] {
        let data = inject_class_noise(&banana(n), 0.10, 1).0;
        let label = format!("n{n}");
        for backend in GranulationBackend::CONCRETE {
            let cfg = GbgPpConfig {
                backend,
                ..GbgPpConfig::default()
            };
            group.bench_with_input(BenchmarkId::new(backend.name(), &label), &data, |b, d| {
                b.iter(|| black_box(gbg_pp(d, &cfg)));
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("lineage_kdiv");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [10_000usize, 50_000] {
        let data = inject_class_noise(&banana(n), 0.10, 1).0;
        let cfg = KDivConfig {
            seed: 7,
            ..KDivConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("auto", format!("n{n}")), &data, |b, d| {
            b.iter(|| black_box(k_division_gbg(d, &cfg)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_granulation_backends,
    bench_granulation_usps,
    bench_granulation_s8,
    bench_hood_fetch,
    bench_sample_pipeline,
    bench_lineage_baselines
);
criterion_main!(benches);
