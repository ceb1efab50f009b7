//! Golden outputs of the neighbour-based baselines: FNV-1a/64 fingerprints
//! of what SMOTE, Borderline-SMOTE, ADASYN, ENN, Tomek links, SMOTE-Tomek
//! and SMOTE-ENN emit, and of `KnnClassifier` predictions, pinned so that
//! any change to the neighbour scan under them that moves one neighbour,
//! one synthetic coordinate bit or one prediction fails here.
//!
//! Each input sits on one side of the scan's width split: banana (p = 2)
//! runs the sub-lane per-pair loop, the S8 and S13 samples (p = 16, 256)
//! the blocked kernels. The values were recorded once and are compared
//! verbatim; a mismatch prints the whole recomputed table. Record new
//! values only for a change that is *meant* to alter these outputs, and
//! say so where the change is described.
//!
//! Fingerprinted per sampler: the output's shape, every feature's bits,
//! every label and the `kept_rows` list; per classifier, every
//! prediction.

use gb_classifiers::knn::{KnnClassifier, KnnConfig};
use gb_classifiers::Classifier;
use gb_dataset::catalog::DatasetId;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::split::stratified_holdout;
use gb_dataset::Dataset;
use gb_sampling::{Adasyn, BorderlineSmote, EditedNn, Smote, SmoteEnn, SmoteTomek, TomekLinks};
use gbabs::{SampleResult, Sampler};

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
}

fn sample_fingerprint(out: &SampleResult) -> u64 {
    let mut h = Fnv::new();
    let d = &out.dataset;
    h.u64(d.n_samples() as u64);
    h.u64(d.n_features() as u64);
    for &v in d.features() {
        h.u64(v.to_bits());
    }
    for &l in d.labels() {
        h.u64(u64::from(l));
    }
    match &out.kept_rows {
        None => h.u64(u64::MAX),
        Some(rows) => {
            h.u64(rows.len() as u64);
            for &r in rows {
                h.u64(r as u64);
            }
        }
    }
    h.0
}

fn predictions_fingerprint(preds: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.u64(preds.len() as u64);
    for &p in preds {
        h.u64(u64::from(p));
    }
    h.0
}

/// S5 banana at 600 rows with 10% class noise (p = 2).
fn banana() -> Dataset {
    let clean = DatasetId::S5.generate(600.0 / 5_300.0, 11);
    inject_class_noise(&clean, 0.10, 12).0
}

/// S8 Dry Bean surrogate at 700 rows (p = 16, 7 imbalanced classes).
fn dry_bean() -> Dataset {
    let clean = DatasetId::S8.generate(700.0 / 13_611.0, 13);
    inject_class_noise(&clean, 0.05, 14).0
}

/// S13 USPS surrogate at 300 rows (p = 256, 10 classes) with 10% noise.
fn usps() -> Dataset {
    let clean = DatasetId::S13.generate(300.0 / 9_298.0, 15);
    inject_class_noise(&clean, 0.10, 16).0
}

/// 90 rows on a 3-d integer grid (p = 3): duplicate rows and distance
/// ties everywhere, a one-row class (SMOTE duplicates its lone donor)
/// and a three-row class (fewer same-class neighbours than `k`).
fn ties() -> Dataset {
    let mut feats = Vec::new();
    let mut labels = Vec::new();
    for i in 0..90u32 {
        feats.extend([f64::from(i % 3), f64::from(i / 3 % 4), f64::from(i % 2)]);
        labels.push(match i {
            7 => 2,
            11 | 40 | 41 => 1,
            _ if i % 9 == 4 => 1,
            _ => 0,
        });
    }
    Dataset::from_parts(feats, labels, 3, 3)
}

/// Every neighbour-based sampler at two seeds, then kNN at k ∈ {1, 5}
/// trained on a stratified 70% split and scored on the rest.
fn fingerprints(name: &str, data: &Dataset) -> Vec<(String, u64)> {
    let samplers: [Box<dyn Sampler>; 7] = [
        Box::new(Smote::default()),
        Box::new(BorderlineSmote::default()),
        Box::new(Adasyn::default()),
        Box::new(EditedNn::default()),
        Box::new(TomekLinks::default()),
        Box::new(SmoteTomek::default()),
        Box::new(SmoteEnn::default()),
    ];
    let mut out = Vec::new();
    for sampler in &samplers {
        for seed in [0u64, 42] {
            out.push((
                format!("{name}/{}/seed{seed}", sampler.name()),
                sample_fingerprint(&sampler.sample(data, seed)),
            ));
        }
    }
    let (train, test) = stratified_holdout(data, 0.3, 17);
    let (train, test) = (data.select(&train), data.select(&test));
    for k in [1usize, 5] {
        let model = KnnClassifier::fit(&train, KnnConfig { k });
        out.push((
            format!("{name}/kNN/k{k}"),
            predictions_fingerprint(&model.predict(&test)),
        ));
    }
    out
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
        "sampler outputs under {prefix} changed; recomputed fingerprints:\n{table}"
    );
}

#[test]
fn ties_samples_match_golden() {
    check("ties/", &fingerprints("ties", &ties()));
}

#[test]
fn banana_samples_match_golden() {
    check("banana/", &fingerprints("banana", &banana()));
}

#[test]
fn dry_bean_samples_match_golden() {
    check("dry_bean/", &fingerprints("dry_bean", &dry_bean()));
}

#[test]
fn usps_samples_match_golden() {
    check("usps/", &fingerprints("usps", &usps()));
}

/// Fingerprints recorded from the samplers that ran on the standalone
/// brute-force k-NN, one filtered scan per synthetic SMOTE row.
const GOLDEN: &[(&str, u64)] = &[
    ("ties/SM/seed0", 0x925936a51124ea2e),
    ("ties/SM/seed42", 0x574f501a79d3a97d),
    ("ties/BSM/seed0", 0x6a86c6e8edc5268b),
    ("ties/BSM/seed42", 0x6ff3abcc5f8950d5),
    ("ties/ADASYN/seed0", 0x397f5e551c1ba36b),
    ("ties/ADASYN/seed42", 0x11c8771380759a3e),
    ("ties/ENN/seed0", 0x756dc1ecc5d4cc52),
    ("ties/ENN/seed42", 0x756dc1ecc5d4cc52),
    ("ties/Tomek/seed0", 0xc0095c18df9e66cb),
    ("ties/Tomek/seed42", 0xc0095c18df9e66cb),
    ("ties/SM+Tomek/seed0", 0x2cb9036cbb7aa04a),
    ("ties/SM+Tomek/seed42", 0x3bc474bd13161c41),
    ("ties/SM+ENN/seed0", 0xa5360c3d50f6662a),
    ("ties/SM+ENN/seed42", 0x859e417999625386),
    ("ties/kNN/k1", 0x6171b50e4e9ed9bf),
    ("ties/kNN/k5", 0x3277be8ede1b7c3e),
    ("banana/SM/seed0", 0xdb9bf701ae4e8fe1),
    ("banana/SM/seed42", 0x7a90e1c396ff2d6d),
    ("banana/BSM/seed0", 0x6222366d03dc7936),
    ("banana/BSM/seed42", 0xd393663aad8b3177),
    ("banana/ADASYN/seed0", 0x4bbf818924a5db7e),
    ("banana/ADASYN/seed42", 0x182c46e9e7b400b1),
    ("banana/ENN/seed0", 0x49965a34e8d28c6a),
    ("banana/ENN/seed42", 0x49965a34e8d28c6a),
    ("banana/Tomek/seed0", 0x948ecb48a8748809),
    ("banana/Tomek/seed42", 0x948ecb48a8748809),
    ("banana/SM+Tomek/seed0", 0xf910822f0e027787),
    ("banana/SM+Tomek/seed42", 0x50a59a59361e0a10),
    ("banana/SM+ENN/seed0", 0x237660a44804d478),
    ("banana/SM+ENN/seed42", 0xe9db1d62d09ddd70),
    ("banana/kNN/k1", 0x0f9dca773afc97f1),
    ("banana/kNN/k5", 0x7f9b97843f22e7f1),
    ("dry_bean/SM/seed0", 0x6391f8561544b54f),
    ("dry_bean/SM/seed42", 0x410e6214e0ed7845),
    ("dry_bean/BSM/seed0", 0x4fd038f5ca7747ff),
    ("dry_bean/BSM/seed42", 0xb779fe82f40372a0),
    ("dry_bean/ADASYN/seed0", 0x931483a75df935c2),
    ("dry_bean/ADASYN/seed42", 0xaccf2f8e9fa0501b),
    ("dry_bean/ENN/seed0", 0xc9bb4c32f6fe04a2),
    ("dry_bean/ENN/seed42", 0xc9bb4c32f6fe04a2),
    ("dry_bean/Tomek/seed0", 0x4797406af52852db),
    ("dry_bean/Tomek/seed42", 0x4797406af52852db),
    ("dry_bean/SM+Tomek/seed0", 0xde77890efeabd060),
    ("dry_bean/SM+Tomek/seed42", 0x8467726fbd737aa8),
    ("dry_bean/SM+ENN/seed0", 0xfb40b4d037d66667),
    ("dry_bean/SM+ENN/seed42", 0x287bc45823bc45ee),
    ("dry_bean/kNN/k1", 0x9f5cf62f0e10c0f7),
    ("dry_bean/kNN/k5", 0x1912d988e5280510),
    ("usps/SM/seed0", 0x1cbfe98b1fdbc0a7),
    ("usps/SM/seed42", 0x00863b421cef60e7),
    ("usps/BSM/seed0", 0x03438da5fffc130d),
    ("usps/BSM/seed42", 0x0199c0946e53b91a),
    ("usps/ADASYN/seed0", 0x0264543a01e22a28),
    ("usps/ADASYN/seed42", 0x62bcc200690635ca),
    ("usps/ENN/seed0", 0x1e7542391748d98b),
    ("usps/ENN/seed42", 0x1e7542391748d98b),
    ("usps/Tomek/seed0", 0x5e6756fb3206432e),
    ("usps/Tomek/seed42", 0x5e6756fb3206432e),
    ("usps/SM+Tomek/seed0", 0xcddb040945c3bbb4),
    ("usps/SM+Tomek/seed42", 0x31acbc48c9073ed9),
    ("usps/SM+ENN/seed0", 0x69abea8afbb62428),
    ("usps/SM+ENN/seed42", 0x3a917336babfcd22),
    ("usps/kNN/k1", 0x9de1f60de69e0eb1),
    ("usps/kNN/k5", 0xf2ee9f67da3edb10),
];
