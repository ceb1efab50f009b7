//! Online-maintenance oracle: a property test pinning the headline
//! guarantee of the ingest path — a [`MaintainedModel`] grown by a seeded
//! append sequence is **bit-identical, ball for ball and prediction for
//! prediction**, to a from-scratch [`canonical_rd_gbg`] build on the
//! union dataset, under every exact neighbour backend (brute / kd-tree /
//! vp-tree). Each append rebuilds the canonical cover of the grown rows,
//! so this pins that the cover depends only on the row sequence: on
//! neither the batching nor the backend. CI runs this suite under both
//! `GB_SIMD` legs, so the guarantee also holds across the SIMD and scalar
//! distance kernels.
//!
//! Append batches are drawn from the adversarial flavours the serving
//! tier sees in practice: fresh in-distribution rows, exact duplicates of
//! already-ingested rows, single-class bursts, near-copies that land
//! inside existing balls, and far outliers (they become their own region).
//! The maintained cover must agree with the oracle after **every** batch,
//! not just at the end.

use gb_dataset::index::GranulationBackend;
use gb_dataset::Dataset;
use gbabs::{canonical_rd_gbg, GbKnn, MaintainedModel, RdGbgModel};
use proptest::prelude::*;

const BACKENDS: [GranulationBackend; 3] = [
    GranulationBackend::Brute,
    GranulationBackend::KdTree,
    GranulationBackend::VpTree,
];

/// SplitMix64 — the repo's standard dependency-free generator, so the
/// materialised row sequence is reproducible from the proptest-chosen
/// seed alone.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One class-clustered row: class `label` lives around `label * 4.0` in
/// every dimension with ±1.5 spread, so covers contain real multi-member
/// balls instead of degenerating to all-orphan covers.
fn clustered_row(label: u32, p: usize, state: &mut u64) -> Vec<f64> {
    (0..p)
        .map(|_| f64::from(label) * 4.0 + (unit(state) - 0.5) * 3.0)
        .collect()
}

/// Append-batch flavours exercised by the sequence generator.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    /// In-distribution rows, labels drawn uniformly.
    Fresh,
    /// Exact bit-for-bit duplicates of already-ingested rows (same label —
    /// a duplicate with a flipped label is the conflict suite's job).
    Duplicate,
    /// A burst of rows all carrying one label, tightly clustered.
    SingleClassBurst,
    /// Near-copies of existing rows (±1e-6 per dimension), which land
    /// inside existing balls and must not split pure regions.
    InsideBall,
    /// Rows three orders of magnitude outside the data range.
    FarOutlier,
}

const FLAVORS: [Flavor; 5] = [
    Flavor::Fresh,
    Flavor::Duplicate,
    Flavor::SingleClassBurst,
    Flavor::InsideBall,
    Flavor::FarOutlier,
];

/// Materialises one batch. `prior` is the union so far (row-major), which
/// duplicate/inside-ball flavours sample from.
fn materialize(
    flavor: Flavor,
    size: usize,
    p: usize,
    q: u32,
    prior_features: &[f64],
    prior_labels: &[u32],
    state: &mut u64,
) -> (Vec<f64>, Vec<u32>) {
    let n_prior = prior_labels.len();
    let mut features = Vec::with_capacity(size * p);
    let mut labels = Vec::with_capacity(size);
    match flavor {
        Flavor::Fresh => {
            for _ in 0..size {
                let label = (next_u64(state) % u64::from(q)) as u32;
                features.extend(clustered_row(label, p, state));
                labels.push(label);
            }
        }
        Flavor::Duplicate | Flavor::InsideBall => {
            for _ in 0..size {
                let i = (next_u64(state) % n_prior as u64) as usize;
                let row = &prior_features[i * p..(i + 1) * p];
                match flavor {
                    Flavor::Duplicate => features.extend_from_slice(row),
                    _ => features.extend(row.iter().map(|&x| x + (unit(state) - 0.5) * 2e-6)),
                }
                labels.push(prior_labels[i]);
            }
        }
        Flavor::SingleClassBurst => {
            let label = (next_u64(state) % u64::from(q)) as u32;
            let anchor = clustered_row(label, p, state);
            for _ in 0..size {
                features.extend(anchor.iter().map(|&x| x + (unit(state) - 0.5) * 0.2));
                labels.push(label);
            }
        }
        Flavor::FarOutlier => {
            for _ in 0..size {
                let label = (next_u64(state) % u64::from(q)) as u32;
                features.extend((0..p).map(|_| 1e3 + unit(state) * 1e3));
                labels.push(label);
            }
        }
    }
    (features, labels)
}

/// Bit-exact structural equality of two covers. `f64` fields compare via
/// `to_bits` — "close enough" is exactly the bug class this suite exists
/// to catch.
fn assert_models_identical(got: &RdGbgModel, want: &RdGbgModel, ctx: &str) {
    assert_eq!(got.balls.len(), want.balls.len(), "{ctx}: ball count");
    assert_eq!(got.orphan_count, want.orphan_count, "{ctx}: orphan count");
    assert_eq!(got.noise, want.noise, "{ctx}: noise rows");
    for (i, (g, w)) in got.balls.iter().zip(&want.balls).enumerate() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g.center), bits(&w.center), "{ctx}: ball {i} center");
        assert_eq!(
            g.radius.to_bits(),
            w.radius.to_bits(),
            "{ctx}: ball {i} radius"
        );
        assert_eq!(g.label, w.label, "{ctx}: ball {i} label");
        assert_eq!(g.members, w.members, "{ctx}: ball {i} members");
        assert_eq!(g.center_row, w.center_row, "{ctx}: ball {i} center_row");
        assert_eq!(
            g.purity.to_bits(),
            w.purity.to_bits(),
            "{ctx}: ball {i} purity"
        );
    }
}

/// One proptest-chosen ingest scenario: base-set shape, ρ, and a short
/// script of (flavour, batch size) pairs plus the row-material seed.
#[derive(Debug, Clone)]
struct Scenario {
    n0: usize,
    p: usize,
    q: u32,
    rho: usize,
    seed: u64,
    script: Vec<(usize, usize)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        8usize..48,
        1usize..4,
        2u32..4,
        2usize..7,
        0u64..u64::MAX,
        proptest::collection::vec((0usize..FLAVORS.len(), 1usize..7), 1..4),
    )
        .prop_map(|(n0, p, q, rho, seed, script)| Scenario {
            n0,
            p,
            q,
            rho,
            seed,
            script,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline equivalence: after every appended batch, the
    /// incrementally maintained cover equals the from-scratch canonical
    /// rebuild on the union — bit for bit, under all three exact
    /// backends — and the backends agree with each other. Predictions on
    /// the final state are checked row for row.
    #[test]
    fn incremental_appends_match_from_scratch_oracle(sc in arb_scenario()) {
        // Materialise the base set once; every backend consumes the same
        // bytes.
        let mut state = sc.seed;
        let mut features = Vec::with_capacity(sc.n0 * sc.p);
        let mut labels = Vec::with_capacity(sc.n0);
        for _ in 0..sc.n0 {
            let label = (next_u64(&mut state) % u64::from(sc.q)) as u32;
            features.extend(clustered_row(label, sc.p, &mut state));
            labels.push(label);
        }
        let base = Dataset::from_parts(features.clone(), labels.clone(), sc.p, sc.q as usize);
        let mut maintained: Vec<MaintainedModel> = BACKENDS
            .iter()
            .map(|&b| MaintainedModel::build(base.clone(), sc.rho, b))
            .collect();

        for (step, &(flavor_ix, size)) in sc.script.iter().enumerate() {
            let flavor = FLAVORS[flavor_ix];
            let (bf, bl) = materialize(flavor, size, sc.p, sc.q, &features, &labels, &mut state);
            features.extend_from_slice(&bf);
            labels.extend_from_slice(&bl);
            let union = Dataset::from_parts(features.clone(), labels.clone(), sc.p, sc.q as usize);
            for (m, &backend) in maintained.iter_mut().zip(&BACKENDS) {
                let before = m.data().n_samples();
                m.append(&bf, &bl);
                prop_assert_eq!(m.data().n_samples() - before, size);
                prop_assert_eq!(m.data().n_samples(), labels.len());
                let oracle = canonical_rd_gbg(&union, sc.rho, backend);
                assert_models_identical(
                    m.model(),
                    &oracle,
                    &format!("step {step} ({flavor:?}) backend {backend:?}"),
                );
            }
            // Backend invariance: kd-tree and vp-tree covers equal brute's.
            let (brute, rest) = maintained.split_first().unwrap();
            for (m, &backend) in rest.iter().zip(&BACKENDS[1..]) {
                assert_models_identical(
                    m.model(),
                    brute.model(),
                    &format!("step {step}: {backend:?} vs Brute"),
                );
            }
        }

        // Prediction-for-prediction on the final state: probe with every
        // ingested row plus fresh in-distribution points.
        let mut probes = features.clone();
        for _ in 0..16 {
            let label = (next_u64(&mut state) % u64::from(sc.q)) as u32;
            probes.extend(clustered_row(label, sc.p, &mut state));
        }
        let union = Dataset::from_parts(features, labels, sc.p, sc.q as usize);
        let oracle = canonical_rd_gbg(&union, sc.rho, GranulationBackend::Brute);
        let want = GbKnn::from_model(&oracle, sc.q as usize, 3).predict_batch(&probes, sc.p);
        for (m, &backend) in maintained.iter().zip(&BACKENDS) {
            let got = GbKnn::from_model(m.model(), sc.q as usize, 3).predict_batch(&probes, sc.p);
            prop_assert_eq!(&got, &want, "prediction divergence under {:?}", backend);
        }
    }
}
