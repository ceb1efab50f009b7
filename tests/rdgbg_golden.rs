//! Golden covers: FNV-1a/64 fingerprints of RD-GBG models, pinned so that
//! any change to the granulation engine that alters a cover — one member,
//! one radius bit, one noise row — fails here.
//!
//! The cross-backend tests compare backends against each other, and every
//! backend runs the same engine, so an engine change that moves all of
//! them together passes those tests. These fingerprints were recorded
//! once and are compared verbatim; a mismatch prints the whole recomputed
//! table. Record new values only for a change that is *meant* to alter
//! covers, and say so where the change is described.
//!
//! Fingerprinted per model: ball count, then per ball its sorted members,
//! `radius.to_bits()`, label and `center_row`; then the noise list,
//! `iterations` and `orphan_count`.

use gb_dataset::catalog::DatasetId;
use gb_dataset::index::GranulationBackend;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::{Dataset, Metric};
use gbabs::{canonical_rd_gbg, rd_gbg, RdGbgConfig, RdGbgModel};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rows(&mut self, rows: &[usize]) {
        self.u64(rows.len() as u64);
        for &r in rows {
            self.u64(r as u64);
        }
    }
}

fn fingerprint(model: &RdGbgModel) -> u64 {
    let mut h = Fnv::new();
    h.u64(model.balls.len() as u64);
    for b in &model.balls {
        h.rows(&b.members);
        h.u64(b.radius.to_bits());
        h.u64(u64::from(b.label));
        h.u64(b.center_row.map_or(u64::MAX, |r| r as u64));
    }
    h.rows(&model.noise);
    h.u64(model.iterations as u64);
    h.u64(model.orphan_count as u64);
    h.0
}

/// S5 banana at 2,000 rows with 10% class noise.
fn banana() -> Dataset {
    let clean = DatasetId::S5.generate(2_000.0 / 5_300.0, 3);
    inject_class_noise(&clean, 0.10, 4).0
}

/// S8 Dry Bean surrogate at 1,000 rows (16 features, 7 classes).
fn dry_bean() -> Dataset {
    DatasetId::S8.generate(1_000.0 / 13_611.0, 5)
}

/// S13 USPS surrogate at 300 rows (256 features) with 10% class noise.
fn usps() -> Dataset {
    let clean = DatasetId::S13.generate(300.0 / 9_298.0, 6);
    inject_class_noise(&clean, 0.10, 7).0
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::SqEuclidean => "sqeuclidean",
        Metric::Manhattan => "manhattan",
        Metric::Cosine => "cosine",
    }
}

/// The seeded engine on `data` at `seed`, over ρ {2, 5} × every metric.
fn seeded(name: &str, data: &Dataset, seed: u64) -> Vec<(String, u64)> {
    assert_eq!(Metric::ALL.len(), 3, "a new metric needs golden values");
    let mut out = Vec::new();
    for rho in [2usize, 5] {
        for metric in Metric::ALL {
            let cfg = RdGbgConfig {
                density_tolerance: rho,
                seed,
                ..RdGbgConfig::default()
            }
            .with_metric(metric);
            out.push((
                format!("{name}/seeded/seed{seed}/rho{rho}/{}", metric_name(metric)),
                fingerprint(&rd_gbg(data, &cfg)),
            ));
        }
    }
    out
}

/// The canonical (maintenance) engine on `data`, over ρ {2, 5}.
fn canonical(name: &str, data: &Dataset) -> Vec<(String, u64)> {
    [2usize, 5]
        .into_iter()
        .map(|rho| {
            (
                format!("{name}/canonical/rho{rho}"),
                fingerprint(&canonical_rd_gbg(data, rho, GranulationBackend::Auto)),
            )
        })
        .collect()
}

/// Compares `actual` with the [`GOLDEN`] entries under `prefix`.
fn check(prefix: &str, actual: &[(String, u64)]) {
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    let table: String = actual
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", 0x{v:016x}),\n"))
        .collect();
    assert!(
        actual == expected.as_slice(),
        "RD-GBG covers under {prefix} changed; recomputed fingerprints:\n{table}"
    );
}

#[test]
fn banana_covers_match_golden() {
    let data = banana();
    let mut actual = seeded("banana", &data, 0);
    actual.extend(seeded("banana", &data, 42));
    actual.extend(canonical("banana", &data));
    for (ablation, cfg) in [
        (
            "no_overlap_restriction",
            RdGbgConfig {
                restrict_overlap: false,
                ..RdGbgConfig::default()
            },
        ),
        (
            "no_noise_detection",
            RdGbgConfig {
                detect_noise: false,
                ..RdGbgConfig::default()
            },
        ),
    ] {
        for seed in [0u64, 42] {
            actual.push((
                format!("banana/ablation/{ablation}/seed{seed}"),
                fingerprint(&rd_gbg(&data, &RdGbgConfig { seed, ..cfg })),
            ));
        }
    }
    check("banana/", &actual);
}

#[test]
fn dry_bean_covers_match_golden() {
    let data = dry_bean();
    let mut actual = seeded("dry_bean", &data, 0);
    actual.extend(seeded("dry_bean", &data, 42));
    actual.extend(canonical("dry_bean", &data));
    check("dry_bean/", &actual);
}

// The 256-wide covers are the slowest to build in a debug test binary,
// so they are split across three tests that the harness runs in parallel.

#[test]
fn usps_seed0_covers_match_golden() {
    check("usps/seeded/seed0/", &seeded("usps", &usps(), 0));
}

#[test]
fn usps_seed42_covers_match_golden() {
    check("usps/seeded/seed42/", &seeded("usps", &usps(), 42));
}

#[test]
fn usps_canonical_covers_match_golden() {
    check("usps/canonical/", &canonical("usps", &usps()));
}

/// Fingerprints recorded from the engine that ran a k-NN, a
/// nearest-heterogeneous and a range query for every accepted candidate.
const GOLDEN: &[(&str, u64)] = &[
    ("banana/seeded/seed0/rho2/sqeuclidean", 0xbe1572928a256613),
    ("banana/seeded/seed0/rho2/manhattan", 0xce08ee6c0aadd77c),
    ("banana/seeded/seed0/rho2/cosine", 0xa48e4402169af56f),
    ("banana/seeded/seed0/rho5/sqeuclidean", 0x80d4816441e8da89),
    ("banana/seeded/seed0/rho5/manhattan", 0xc8aeb704d307867c),
    ("banana/seeded/seed0/rho5/cosine", 0x0feeba58395f91d0),
    ("banana/seeded/seed42/rho2/sqeuclidean", 0x3696a1b640d2a444),
    ("banana/seeded/seed42/rho2/manhattan", 0x5103b1d9afe82c11),
    ("banana/seeded/seed42/rho2/cosine", 0x53d2394d22139578),
    ("banana/seeded/seed42/rho5/sqeuclidean", 0x0d524841ffa7985e),
    ("banana/seeded/seed42/rho5/manhattan", 0x3d616c0538afd182),
    ("banana/seeded/seed42/rho5/cosine", 0xf5569f1f94ec177e),
    ("banana/canonical/rho2", 0x8705a1bcb98bb9be),
    ("banana/canonical/rho5", 0xb0cf2dd5ae8e17a1),
    (
        "banana/ablation/no_overlap_restriction/seed0",
        0xbc60fbd21aa8488a,
    ),
    (
        "banana/ablation/no_overlap_restriction/seed42",
        0x2a4895083cb83fa1,
    ),
    (
        "banana/ablation/no_noise_detection/seed0",
        0x8729b3e84e5df92d,
    ),
    (
        "banana/ablation/no_noise_detection/seed42",
        0x54db10bf40572a3c,
    ),
    ("dry_bean/seeded/seed0/rho2/sqeuclidean", 0x1607c8ffec47e49d),
    ("dry_bean/seeded/seed0/rho2/manhattan", 0xe6d581debe3bc5f2),
    ("dry_bean/seeded/seed0/rho2/cosine", 0x9d74560ce4255dc7),
    ("dry_bean/seeded/seed0/rho5/sqeuclidean", 0x4f18eb7db077ebef),
    ("dry_bean/seeded/seed0/rho5/manhattan", 0x0544b169dea9642d),
    ("dry_bean/seeded/seed0/rho5/cosine", 0x24d92062f8a966aa),
    (
        "dry_bean/seeded/seed42/rho2/sqeuclidean",
        0x86d3d442573b817c,
    ),
    ("dry_bean/seeded/seed42/rho2/manhattan", 0x7ddd21540d12210c),
    ("dry_bean/seeded/seed42/rho2/cosine", 0x1e1d64fae7da1fc6),
    (
        "dry_bean/seeded/seed42/rho5/sqeuclidean",
        0x28b96c35aa2efee3,
    ),
    ("dry_bean/seeded/seed42/rho5/manhattan", 0x990ea57ff240f2f1),
    ("dry_bean/seeded/seed42/rho5/cosine", 0x814378051de6a657),
    ("dry_bean/canonical/rho2", 0x634b7f3f8b472db7),
    ("dry_bean/canonical/rho5", 0xdfab5b3f7a683d5e),
    ("usps/seeded/seed0/rho2/sqeuclidean", 0xaf75593685c5b2ed),
    ("usps/seeded/seed0/rho2/manhattan", 0xda9511ac3e819aad),
    ("usps/seeded/seed0/rho2/cosine", 0x52dbb8dabe5301f5),
    ("usps/seeded/seed0/rho5/sqeuclidean", 0xcbba91c84f8b2312),
    ("usps/seeded/seed0/rho5/manhattan", 0x5f99e39119605af0),
    ("usps/seeded/seed0/rho5/cosine", 0x7a2ec086d374b32d),
    ("usps/seeded/seed42/rho2/sqeuclidean", 0x2fcf2ece43c864fa),
    ("usps/seeded/seed42/rho2/manhattan", 0x723742a551817b9e),
    ("usps/seeded/seed42/rho2/cosine", 0x1f9045a0f2f469d9),
    ("usps/seeded/seed42/rho5/sqeuclidean", 0xaf2b89d9783288c2),
    ("usps/seeded/seed42/rho5/manhattan", 0x90653b5cce45488b),
    ("usps/seeded/seed42/rho5/cosine", 0xd6e447cdb869e56e),
    ("usps/canonical/rho2", 0xa211714be551c2b7),
    ("usps/canonical/rho5", 0xb69481d678f6c805),
];
