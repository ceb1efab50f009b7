//! Nearest-neighbour index throughput: brute force vs KD-tree vs VP-tree,
//! each answering `NeighborIndex::k_nearest_sq` through the shared scan.
//!
//! The paper's conclusion flags high-dimensional cost as GBABS's open
//! problem; this bench quantifies the candidate fixes. The KD-tree wins
//! at p = 2 and degrades toward brute force as p grows; the VP-tree prunes
//! only when the data's *intrinsic* dimensionality is low — on the
//! isotropic S12 surrogate (high intrinsic dimension) no exact index beats
//! the cache-friendly linear scan, which is why `GranulationBackend::Auto`
//! picks brute force above 24 features (BENCH_GRANULATION.json entry 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gb_dataset::catalog::DatasetId;
use gb_dataset::GranulationBackend;
use std::hint::black_box;

fn bench_knn_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_index");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (id, scale) in [
        (DatasetId::S5, 0.2),   // p = 2
        (DatasetId::S8, 0.05),  // p = 16
        (DatasetId::S12, 0.05), // p = 128
    ] {
        let data = id.generate(scale, 11);
        let label = format!(
            "{}_n{}_p{}",
            id.rename(),
            data.n_samples(),
            data.n_features()
        );
        let queries: Vec<&[f64]> = (0..64).map(|i| data.row(i % data.n_samples())).collect();
        for backend in GranulationBackend::CONCRETE {
            let index = backend.build(&data);
            group.bench_with_input(BenchmarkId::new(backend.name(), &label), &index, |b, ix| {
                b.iter(|| {
                    for q in &queries {
                        black_box(ix.k_nearest_sq(q, 5, None));
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_knn_indexes);
criterion_main!(benches);
