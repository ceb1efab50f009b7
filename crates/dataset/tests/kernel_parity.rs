//! Kernel-parity property tests (ISSUE 3 satellite).
//!
//! The workspace's cross-backend bit-identity guarantees rest on two facts:
//!
//! 1. every distance-kernel tier (AVX2, SSE2, scalar fallback) computes the
//!    **same** 4-lane accumulation tree, so tier results are bit-identical
//!    on every host and under `GB_SIMD=scalar`;
//! 2. the contract is **width-keyed**: rows narrower than `LANE_WIDTH` are
//!    summed in sequential order by every path ([`sq_euclidean`],
//!    [`sq_euclidean_dispatched`], and the batched kernel all agree), and
//!    rows at or above it use the lane tree everywhere — so for any fixed
//!    row width, every scan path produces the same bits.
//!
//! These tests drive both claims through odd lengths, remainder tails,
//! subnormals, and ±0.0, and bound the lane tree's divergence from the
//! sequential oracle by a scaled-ULP tolerance.

use gb_dataset::distance::{
    sq_euclidean, sq_euclidean_dispatched, sq_euclidean_naive, sq_euclidean_one_to_many,
    sq_euclidean_one_to_many_with, sq_euclidean_scalar, sq_euclidean_with, Kernel, LANE_WIDTH,
};
use proptest::prelude::*;

/// Interesting coordinates: normals across magnitudes, subnormals, and
/// signed zeros (NaN/inf excluded — `Dataset` constructors reject them).
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1e3f64..1e3f64,
        2 => prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(f64::MIN_POSITIVE),
            Just(-f64::MIN_POSITIVE),
            Just(f64::MIN_POSITIVE / 8.0),   // subnormal
            Just(-f64::MIN_POSITIVE / 16.0), // subnormal
            Just(1e-200f64),
            Just(1e200f64),
        ],
    ]
}

/// Equal-length vector pairs covering every `len % 4` tail class.
fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..70).prop_flat_map(|n| {
        (
            proptest::collection::vec(coord(), n),
            proptest::collection::vec(coord(), n),
        )
    })
}

proptest! {
    /// Every host-available tier agrees with the scalar fallback
    /// bit-for-bit — the SIMD paths can never drift from the path CI
    /// forces with `GB_SIMD=scalar`.
    #[test]
    fn all_tiers_bit_identical((a, b) in vec_pair()) {
        let want = sq_euclidean_scalar(&a, &b);
        for tier in Kernel::available() {
            let got = sq_euclidean_with(tier, &a, &b);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "tier {} diverged: {} vs {}",
                tier.name(),
                got,
                want
            );
        }
        // Width-keyed contract: the inline per-pair kernel is sequential
        // order; the dispatched per-pair kernel equals it below LANE_WIDTH
        // and the (tier-identical) lane tree at or above it. At n <= 2 the
        // two orders coincide, so everything agrees there.
        let seq = sq_euclidean_naive(&a, &b);
        prop_assert_eq!(sq_euclidean(&a, &b).to_bits(), seq.to_bits());
        let dispatched = sq_euclidean_dispatched(&a, &b);
        if a.len() < LANE_WIDTH {
            prop_assert_eq!(dispatched.to_bits(), seq.to_bits());
        } else {
            prop_assert_eq!(dispatched.to_bits(), want.to_bits());
        }
        if a.len() <= 2 {
            prop_assert_eq!(seq.to_bits(), want.to_bits());
        }
    }

    /// The lane-ordered kernels agree with the naive sequential oracle
    /// within a scaled-ULP reassociation bound (all summands are
    /// non-negative, so the error of either summation order is at most
    /// ~n·ε relative to the exact sum).
    #[test]
    fn lane_tree_close_to_naive((a, b) in vec_pair()) {
        let naive = sq_euclidean_naive(&a, &b);
        let lanes = sq_euclidean_scalar(&a, &b);
        if naive.is_infinite() || lanes.is_infinite() {
            // A squared term overflowed; every summation order sees it.
            prop_assert_eq!(lanes, naive);
            return;
        }
        let n = a.len() as f64;
        let tol = f64::EPSILON * naive * (n + 4.0) + f64::MIN_POSITIVE;
        prop_assert!(
            (lanes - naive).abs() <= tol,
            "lanes {} vs naive {} (n = {})",
            lanes,
            naive,
            a.len()
        );
        prop_assert!(lanes >= 0.0, "squared distance must be non-negative");
    }

    /// The batched one-to-many kernel matches per-pair calls bit-for-bit
    /// on every tier, for arbitrary row counts and widths (amortized
    /// dispatch must not change results).
    #[test]
    fn one_to_many_matches_per_pair(
        p in 0usize..20,
        rows in 0usize..12,
        seed_a in proptest::collection::vec(coord(), 0..20),
        seed_b in proptest::collection::vec(coord(), 0..240),
    ) {
        let query: Vec<f64> = (0..p).map(|i| *seed_a.get(i).unwrap_or(&1.5)).collect();
        let block: Vec<f64> = (0..p * rows)
            .map(|i| *seed_b.get(i % seed_b.len().max(1)).unwrap_or(&-0.5))
            .collect();
        let mut out = vec![f64::NAN; rows];
        for tier in Kernel::available() {
            sq_euclidean_one_to_many_with(tier, &query, &block, &mut out);
            for (r, &d) in out.iter().enumerate() {
                let row = &block[r * p..(r + 1) * p];
                // Width-keyed: sub-lane batched rows are sequential order
                // (all tiers identically), wider rows are the tier's lane
                // tree.
                let want = if p < LANE_WIDTH {
                    sq_euclidean_naive(&query, row)
                } else {
                    sq_euclidean_with(tier, &query, row)
                };
                prop_assert_eq!(
                    d.to_bits(),
                    want.to_bits(),
                    "tier {} row {}",
                    tier.name(),
                    r
                );
            }
        }
        // The dispatched batched entry agrees with the dispatched per-pair
        // kernel for every width — the invariant the hybrid scans rely on.
        sq_euclidean_one_to_many(&query, &block, &mut out);
        for (r, &d) in out.iter().enumerate() {
            let want = sq_euclidean_dispatched(&query, &block[r * p..(r + 1) * p]);
            prop_assert_eq!(d.to_bits(), want.to_bits());
        }
    }
}

/// Directed tail cases: every `len % 4` class with values whose squares
/// differ across summation orders (catches a tier that folds its remainder
/// into the wrong lane).
#[test]
fn remainder_tails_bit_identical() {
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 63, 64, 65] {
        let a: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-3).collect();
        let b: Vec<f64> = (0..n).map(|i| 3.0_f64.powi(i as i32 % 11 - 5)).collect();
        let want = sq_euclidean_scalar(&a, &b);
        for tier in Kernel::available() {
            assert_eq!(
                sq_euclidean_with(tier, &a, &b).to_bits(),
                want.to_bits(),
                "tier {} at n={n}",
                tier.name()
            );
        }
    }
}

/// Signed zeros and subnormal differences survive every tier unchanged.
#[test]
fn signed_zero_and_subnormal_tails() {
    let a = [0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE / 4.0, 0.0];
    let b = [-0.0, 0.0, f64::MIN_POSITIVE / 2.0, 0.0, 1e-300];
    let want = sq_euclidean_scalar(&a, &b);
    for tier in Kernel::available() {
        assert_eq!(
            sq_euclidean_with(tier, &a, &b).to_bits(),
            want.to_bits(),
            "tier {}",
            tier.name()
        );
    }
}

/// The batched boundary enforces exact strides — no silent truncation
/// (ISSUE 3 satellite fix).
#[test]
#[should_panic(expected = "row-major block")]
fn batched_boundary_rejects_short_block() {
    let mut out = vec![0.0; 3];
    // 3 rows of width 4 need 12 values; pass 11.
    sq_euclidean_one_to_many(&[0.0; 4], &[1.0; 11], &mut out);
}

/// Oversized blocks are rejected too (the old pairwise kernel silently
/// truncated to the shorter side; the batched API must not).
#[test]
#[should_panic(expected = "row-major block")]
fn batched_boundary_rejects_long_block() {
    let mut out = vec![0.0; 2];
    sq_euclidean_one_to_many(&[0.0; 4], &[1.0; 9], &mut out);
}

// ---------------------------------------------------------------------------
// Contract v2 additions: Manhattan parity, blocked many-to-many, Metric
// dispatch, and shape panics (PR 10).
// ---------------------------------------------------------------------------

use gb_dataset::distance::{
    manhattan, manhattan_dist_block_with, manhattan_one_to_many_with, manhattan_scalar,
    manhattan_with, sq_dist_block, sq_dist_block_with, Metric,
};

/// Row-major (queries, block, p) triples with p spanning the sub-lane,
/// one-vector, and multi-vector width classes.
fn block_inputs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize)> {
    (1usize..12, 0usize..5, 0usize..9).prop_flat_map(|(p, nq, nr)| {
        (
            proptest::collection::vec(coord(), p * nq),
            proptest::collection::vec(coord(), p * nr),
            Just(p),
        )
    })
}

proptest! {
    /// The L1 kernel obeys the same tier contract as the squared-Euclidean
    /// one: every host tier is bit-identical to the scalar 4-lane tree, and
    /// the dispatched width-keying falls back to sequential order below
    /// `LANE_WIDTH`.
    #[test]
    fn manhattan_tiers_bit_identical((a, b) in vec_pair()) {
        let want = manhattan_scalar(&a, &b);
        for tier in Kernel::available() {
            let got = manhattan_with(tier, &a, &b);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "tier {} diverged: {} vs {}",
                tier.name(),
                got,
                want
            );
        }
        if a.len() <= 2 {
            // At n <= 2 the sequential and lane orders coincide.
            prop_assert_eq!(manhattan(&a, &b).to_bits(), want.to_bits());
        }
    }

    /// The L1 lane tree agrees with the sequential oracle within the same
    /// scaled-ULP reassociation bound as the squared kernel (all summands
    /// non-negative).
    #[test]
    fn manhattan_lane_tree_close_to_naive((a, b) in vec_pair()) {
        let naive = manhattan(&a, &b);
        let lanes = manhattan_scalar(&a, &b);
        let n = a.len() as f64;
        let tol = f64::EPSILON * naive * (n + 4.0) + f64::MIN_POSITIVE;
        prop_assert!(
            (lanes - naive).abs() <= tol,
            "lanes {} vs naive {} (n = {})",
            lanes,
            naive,
            a.len()
        );
        prop_assert!(lanes >= 0.0);
    }

    /// The blocked many-to-many kernel is bit-identical to repeated
    /// one-to-many calls on every tier — the register tile must be a pure
    /// scheduling change, never a numeric one. This is the invariant that
    /// lets `predict_batch` / Lloyd steps switch to [`sq_dist_block`]
    /// without re-baselining any stored model.
    #[test]
    fn blocked_matches_repeated_one_to_many((queries, block, p) in block_inputs()) {
        let nq = queries.len() / p;
        let nr = block.len() / p;
        let mut blocked = vec![f64::NAN; nq * nr];
        let mut repeated = vec![f64::NAN; nr];
        for tier in Kernel::available() {
            sq_dist_block_with(tier, &queries, &block, p, &mut blocked);
            for (qi, q) in queries.chunks_exact(p).enumerate() {
                sq_euclidean_one_to_many_with(tier, q, &block, &mut repeated);
                for (r, &want) in repeated.iter().enumerate() {
                    prop_assert_eq!(
                        blocked[qi * nr + r].to_bits(),
                        want.to_bits(),
                        "tier {} query {} row {}",
                        tier.name(),
                        qi,
                        r
                    );
                }
            }
        }
        // L1 blocked path: same invariant.
        for tier in Kernel::available() {
            manhattan_dist_block_with(tier, &queries, &block, p, &mut blocked);
            for (qi, q) in queries.chunks_exact(p).enumerate() {
                manhattan_one_to_many_with(tier, q, &block, &mut repeated);
                for (r, &want) in repeated.iter().enumerate() {
                    prop_assert_eq!(
                        blocked[qi * nr + r].to_bits(),
                        want.to_bits(),
                        "L1 tier {} query {} row {}",
                        tier.name(),
                        qi,
                        r
                    );
                }
            }
        }
    }

    /// [`Metric`] dispatch is a pure router: for every metric, the batched
    /// and blocked entry points agree bit-for-bit with the metric's
    /// dispatched per-pair kernel on prepared inputs.
    #[test]
    fn metric_dispatch_matches_per_pair((queries, block, p) in block_inputs()) {
        let nq = queries.len() / p;
        let nr = block.len() / p;
        for metric in Metric::ALL {
            let mut qs = queries.clone();
            let mut rows = block.clone();
            metric.prepare_rows(&mut qs, p);
            metric.prepare_rows(&mut rows, p);
            let mut blocked = vec![f64::NAN; nq * nr];
            metric.dist_block(&qs, &rows, p, &mut blocked);
            let mut o2m = vec![f64::NAN; nr];
            for (qi, q) in qs.chunks_exact(p).enumerate() {
                metric.one_to_many(q, &rows, &mut o2m);
                for (r, row) in rows.chunks_exact(p).enumerate() {
                    let want = metric.pair(q, row);
                    prop_assert_eq!(
                        o2m[r].to_bits(),
                        want.to_bits(),
                        "{} one_to_many row {}",
                        metric.name(),
                        r
                    );
                    prop_assert_eq!(
                        blocked[qi * nr + r].to_bits(),
                        want.to_bits(),
                        "{} blocked q{} r{}",
                        metric.name(),
                        qi,
                        r
                    );
                }
            }
        }
    }

    /// Cosine preparation yields unit-ish rows, and `prepare_query` on an
    /// already-normalized row is a bitwise no-op for the other metrics.
    #[test]
    fn cosine_prepare_normalizes(row in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
        let prepared = Metric::Cosine.prepare_query(&row);
        let norm: f64 = prepared.iter().map(|x| x * x).sum();
        // Zero rows stay zero; everything else lands on the unit sphere.
        prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-9, "norm {}", norm);
        for metric in [Metric::SqEuclidean, Metric::Manhattan] {
            prop_assert!(matches!(
                metric.prepare_query(&row),
                std::borrow::Cow::Borrowed(_)
            ));
        }
    }
}

/// Hosts with AVX2 + FMA must expose the `fma` tier (`GB_SIMD=avx2` names
/// it too).
#[cfg(target_arch = "x86_64")]
#[test]
fn fma_tier_listed_when_supported() {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        assert!(
            Kernel::available().contains(&Kernel::Fma),
            "avx2+fma host must list the fma tier: {:?}",
            Kernel::available()
        );
    }
}

/// The blocked kernel's shape contract: misaligned query strides panic.
#[test]
#[should_panic(expected = "queries must be row-major")]
fn blocked_rejects_misaligned_queries() {
    let mut out = vec![0.0; 2];
    sq_dist_block(&[0.0; 7], &[1.0; 8], 4, &mut out);
}

/// Misaligned block strides panic.
#[test]
#[should_panic(expected = "block must be row-major")]
fn blocked_rejects_misaligned_block() {
    let mut out = vec![0.0; 2];
    sq_dist_block(&[0.0; 4], &[1.0; 9], 4, &mut out);
}

/// Wrong output size panics (never a silent partial write).
#[test]
#[should_panic(expected = "out must be")]
fn blocked_rejects_wrong_out_len() {
    let mut out = vec![0.0; 3];
    sq_dist_block(&[0.0; 8], &[1.0; 8], 4, &mut out);
}

/// `p == 0` is a hard error, not an empty result.
#[test]
#[should_panic(expected = "p > 0")]
fn blocked_rejects_zero_width() {
    let mut out = vec![0.0; 0];
    sq_dist_block(&[], &[], 0, &mut out);
}
