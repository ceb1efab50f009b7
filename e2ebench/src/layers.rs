//! Layer timings taken from outside the program: timed calls into the
//! public functions of gb-dataset and gbabs, made in this process on the
//! workload's own data.

use crate::report::Outcome;
use crate::stats::median;
use gb_dataset::distance::{calibrated_leaf_size, sq_euclidean_one_to_many};
use gb_dataset::index::RangeBound;
use gb_dataset::{Dataset, GranulationBackend, Metric};
use gbabs::{rd_gbg_with_progress, GbKnn, ProgressEvent, RdGbgConfig, RdGbgModel};
use std::hint::black_box;
use std::time::Instant;

/// Rows sampled (evenly spaced) for the per-query index probes.
const PROBE_ROWS: usize = 512;
/// Rows of the one-to-many distance probe's block.
const KERNEL_ROWS: usize = 2048;
/// Neighbourhood size of the k-NN probe: ρ = 5, as RD-GBG queries it.
const RHO: usize = 5;

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// An RD-GBG model with the wall time and the conflict-bounded ball count
/// of its last progress event.
pub struct Granulated {
    pub model: RdGbgModel,
    pub ms: f64,
    pub conflict_bounded: usize,
}

/// `rd_gbg_with_progress` with the program's defaults (ρ = 5, Auto backend,
/// squared Euclidean) and `seed`, timed.
pub fn granulate(data: &Dataset, seed: u64) -> Granulated {
    let config = RdGbgConfig {
        seed,
        ..RdGbgConfig::default()
    };
    let mut conflict_bounded = 0;
    let mut sink = |e: &ProgressEvent| {
        if let ProgressEvent::Granulate { conflicts, .. } = e {
            conflict_bounded = *conflicts;
        }
    };
    let start = Instant::now();
    let model = rd_gbg_with_progress(data, &config, Some(&mut sink));
    let ms = ms(start);
    Granulated {
        model,
        ms,
        conflict_bounded,
    }
}

/// The cover's quality columns.
pub fn record_cover(out: &mut Outcome, g: &Granulated) {
    let m = &g.model;
    out.set("rdgbg.iterations", m.iterations as f64);
    out.set("rdgbg.balls", m.balls.len() as f64);
    out.set("rdgbg.orphan_balls", m.orphan_count as f64);
    out.set("rdgbg.conflict_bounded_balls", g.conflict_bounded as f64);
    out.set("rdgbg.noise_rows", m.noise.len() as f64);
}

fn backend_id(b: GranulationBackend) -> f64 {
    match b {
        GranulationBackend::Auto => 0.0,
        GranulationBackend::Brute => 1.0,
        GranulationBackend::KdTree => 2.0,
        GranulationBackend::VpTree => 3.0,
    }
}

/// The neighbour-index and distance-kernel layers on `data`: the backend
/// `Auto` resolves to, this process's calibrated leaf size, one build, and
/// the mean cost of the three RD-GBG query kinds on the fresh index.
pub fn index_and_kernel(out: &mut Outcome, data: &Dataset) {
    let (n, p) = (data.n_samples(), data.n_features());
    let backend = GranulationBackend::Auto.resolve(n, p);
    out.set("index.backend", backend_id(backend));
    let leaf = calibrated_leaf_size(p);
    out.set("index.leaf_size", leaf as f64);
    crate::report::note(&format!("calibrated_leaf_size(p={p})"), leaf);

    let start = Instant::now();
    let index = GranulationBackend::Auto.build_with(data, Metric::SqEuclidean);
    out.set("index.build_ms", ms(start));

    let rows: Vec<usize> = (0..PROBE_ROWS.min(n))
        .map(|i| i * n / PROBE_ROWS.min(n))
        .collect();
    let per_call_us = |start: Instant| start.elapsed().as_secs_f64() * 1e6 / rows.len() as f64;
    let start = Instant::now();
    for &r in &rows {
        black_box(index.k_nearest_sq(data.row(r), RHO, Some(r)));
    }
    out.set("index.knn_us", per_call_us(start));
    let start = Instant::now();
    let bounds: Vec<f64> = rows
        .iter()
        .map(|&r| {
            index
                .nearest_heterogeneous_sq(data.row(r), data.label(r), Some(r))
                .map_or(f64::INFINITY, |h| h.sq_dist)
        })
        .collect();
    out.set("index.nearest_het_us", per_call_us(start));
    let start = Instant::now();
    for (&r, &bound) in rows.iter().zip(&bounds) {
        black_box(index.range_sq(data.row(r), bound, RangeBound::Strict, Some(r)));
    }
    out.set("index.range_us", per_call_us(start));

    let m = KERNEL_ROWS.min(n);
    let block = &data.features()[..m * p];
    let query = data.row(n / 2);
    let mut dist = vec![0.0; m];
    let mut batches = Vec::new();
    for _ in 0..5 {
        let (start, mut reps) = (Instant::now(), 0u32);
        while reps < 8 || start.elapsed().as_millis() < 10 {
            sq_euclidean_one_to_many(black_box(query), black_box(block), &mut dist);
            black_box(&dist);
            reps += 1;
        }
        batches.push(start.elapsed().as_secs_f64() * 1e9 / (f64::from(reps) * m as f64));
    }
    out.set("distance.one_to_many_ns_per_row", median(&batches));
    // One subtraction and one fused multiply-add per coordinate; each
    // block row is read once (the query stays in registers/L1).
    out.set("distance.flops_per_row", 3.0 * p as f64);
    out.set("distance.bytes_per_row", 8.0 * p as f64);
}

/// The predictor layer on `model`: `GbKnn::from_model` (k = 1, as served)
/// and single-row `predict_batch` over `queries`.
pub fn gbknn(out: &mut Outcome, model: &RdGbgModel, n_classes: usize, queries: &Dataset) {
    let start = Instant::now();
    let knn = GbKnn::from_model(model, n_classes, 1);
    out.set("gbknn.build_ms", ms(start));
    let p = queries.n_features();
    let n = queries.n_samples().min(PROBE_ROWS);
    let start = Instant::now();
    for r in 0..n {
        black_box(knn.predict_batch(queries.row(r), p));
    }
    out.set(
        "gbknn.predict_row_us",
        start.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64,
    );
}
