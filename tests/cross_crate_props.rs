//! Property-based tests (proptest) on the core algorithms, driven by
//! randomly generated datasets rather than the fixed catalog.

use gb_dataset::Dataset;
use gb_metrics::ranking::{fractional_ranks, ordinal_ranks};
use gb_metrics::wilcoxon::wilcoxon_signed_rank;
use gb_sampling::gbg_kdiv::{k_division_gbg, KDivConfig};
use gbabs::diagnostics::verify_rdgbg_invariants;
use gbabs::{gbabs, rd_gbg, RdGbgConfig};
use proptest::prelude::*;

/// Random small labelled dataset: n in [8, 120], p in [1, 6], q in [1, 4].
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (8usize..120, 1usize..7, 1usize..5).prop_flat_map(|(n, p, q)| {
        (
            proptest::collection::vec(-50.0f64..50.0, n * p),
            proptest::collection::vec(0u32..q as u32, n),
            Just(p),
            Just(q),
        )
            .prop_map(|(feats, labels, p, q)| Dataset::from_parts(feats, labels, p, q))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rdgbg_invariants_on_random_data(data in arb_dataset(), seed in 0u64..1000) {
        let model = rd_gbg(&data, &RdGbgConfig { density_tolerance: 5, seed, ..Default::default() });
        prop_assert!(verify_rdgbg_invariants(&data, &model).is_ok());
    }

    #[test]
    fn gbabs_is_duplicate_free_subset(data in arb_dataset(), seed in 0u64..1000) {
        let res = gbabs(&data, &RdGbgConfig { density_tolerance: 5, seed, ..Default::default() });
        prop_assert!(res.sampled_rows.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(res.sampled_rows.iter().all(|&r| r < data.n_samples()));
        // every sampled row belongs to a borderline ball
        for &r in &res.sampled_rows {
            let in_borderline = res.borderline_balls.iter().any(|&b| {
                res.model.balls[b].members.contains(&r)
            });
            prop_assert!(in_borderline, "row {r} sampled from a non-borderline ball");
        }
    }

    #[test]
    fn kdivision_cover_partitions_rows(data in arb_dataset(), seed in 0u64..1000) {
        let balls = k_division_gbg(&data, &KDivConfig { purity_threshold: 1.0, lloyd_iters: 2, seed });
        let mut seen = vec![0usize; data.n_samples()];
        for b in &balls {
            for &m in &b.members {
                seen[m] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn ordinal_ranks_are_a_permutation(scores in proptest::collection::vec(0.0f64..1.0, 2..12)) {
        let ranks = ordinal_ranks(&scores);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (1..=scores.len()).collect::<Vec<_>>());
        // best rank goes to (one of) the max scores
        let best = ranks.iter().position(|&r| r == 1).unwrap();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((scores[best] - max).abs() < 1e-12);
    }

    #[test]
    fn fractional_ranks_sum_is_invariant(scores in proptest::collection::vec(0.0f64..1.0, 2..12)) {
        let ranks = fractional_ranks(&scores);
        let m = scores.len() as f64;
        let expected = m * (m + 1.0) / 2.0;
        prop_assert!((ranks.iter().sum::<f64>() - expected).abs() < 1e-9);
    }

    #[test]
    fn wilcoxon_is_symmetric_and_bounded(
        pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 6..20)
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let (Ok(r1), Ok(r2)) = (wilcoxon_signed_rank(&a, &b), wilcoxon_signed_rank(&b, &a)) {
            prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
            prop_assert!(r1.p_value > 0.0 && r1.p_value <= 1.0);
            prop_assert_eq!(r1.statistic, r2.statistic);
        }
    }

    #[test]
    fn noise_injection_flips_exactly_the_reported_rows(
        data in arb_dataset(), ratio in 0.0f64..0.5, seed in 0u64..1000
    ) {
        let (noisy, flipped) = gb_dataset::noise::inject_class_noise(&data, ratio, seed);
        for i in 0..data.n_samples() {
            if flipped.contains(&i) {
                prop_assert_ne!(noisy.label(i), data.label(i));
            } else {
                prop_assert_eq!(noisy.label(i), data.label(i));
            }
        }
    }
}
