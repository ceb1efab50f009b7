//! One-shot wall-clock probe of the granulation-lineage samplers, used to
//! record BENCH_GRANULATION.json entries (single timed runs, no criterion
//! loop — the slow cells are too expensive for repeated measurement).
//!
//! ```text
//! cargo run --release --example lineage_probe [n ...]
//! ```

use gb_dataset::index::GranulationBackend;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::synth::banana::BananaSpec;
use gb_sampling::gbg_kdiv::{k_division_gbg, KDivConfig};
use gb_sampling::gbg_kmeans::{kmeans_gbg, KMeansGbgConfig};
use gb_sampling::gbg_pp::{gbg_pp, GbgPpConfig};
use gb_sampling::{Ggbs, Igbs};
use gbabs::Sampler;
use std::time::Instant;

fn time<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    println!("{label}: {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    out
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes = if sizes.is_empty() {
        vec![10_000, 50_000]
    } else {
        sizes
    };
    for n in sizes {
        let clean = BananaSpec {
            n_samples: n,
            ..BananaSpec::default()
        }
        .generate(42);
        let data = inject_class_noise(&clean, 0.10, 1).0;
        for backend in GranulationBackend::CONCRETE {
            let balls = time(&format!("gbg_pp/n{n}/{}", backend.name()), || {
                gbg_pp(
                    &data,
                    &GbgPpConfig {
                        backend,
                        ..GbgPpConfig::default()
                    },
                )
            });
            println!("  gbg_pp balls: {}", balls.len());
        }
        // k-division, 2-means and the samplers on them build no index.
        let b = time(&format!("k_division/n{n}"), || {
            k_division_gbg(&data, &KDivConfig::default())
        });
        println!("  k_division balls: {}", b.len());
        let b = time(&format!("kmeans/n{n}"), || {
            kmeans_gbg(&data, &KMeansGbgConfig::default())
        });
        println!("  kmeans balls: {}", b.len());
        let s = time(&format!("ggbs/n{n}"), || Ggbs::default().sample(&data, 7));
        println!("  ggbs kept: {}", s.dataset.n_samples());
        let s = time(&format!("igbs/n{n}"), || Igbs::default().sample(&data, 7));
        println!("  igbs kept: {}", s.dataset.n_samples());
    }
}
