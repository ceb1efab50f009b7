//! Diagnostics over ball covers.
//!
//! These checks encode the paper's three granulation criteria
//! (*approximation*, *representativeness*, *completeness*, §IV-B) as
//! measurable quantities, and are reused by the property-test suite and the
//! ablation benches.

use crate::ball::GranularBall;
use crate::rdgbg::RdGbgModel;
use gb_dataset::Dataset;

/// Summary statistics of a ball cover.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverStats {
    /// Number of balls.
    pub n_balls: usize,
    /// Number of radius-0 balls.
    pub n_singletons: usize,
    /// Mean members per ball (representativeness).
    pub mean_ball_size: f64,
    /// Largest ball size.
    pub max_ball_size: usize,
    /// Mean radius over balls with radius > 0.
    pub mean_radius: f64,
    /// Minimum purity over balls (1.0 for RD-GBG covers).
    pub min_purity: f64,
    /// Number of overlapping ball pairs (0 for RD-GBG covers).
    pub overlapping_pairs: usize,
    /// Fraction of dataset rows covered by some ball (completeness; noise
    /// rows are intentionally uncovered).
    pub coverage: f64,
}

/// Computes [`CoverStats`] for a set of balls over `data`.
#[must_use]
pub fn cover_stats(data: &Dataset, balls: &[GranularBall]) -> CoverStats {
    let n_balls = balls.len();
    let n_singletons = balls.iter().filter(|b| b.radius == 0.0).count();
    let total_members: usize = balls.iter().map(GranularBall::len).sum();
    let mean_ball_size = if n_balls == 0 {
        0.0
    } else {
        total_members as f64 / n_balls as f64
    };
    let max_ball_size = balls.iter().map(GranularBall::len).max().unwrap_or(0);
    let positive: Vec<f64> = balls
        .iter()
        .filter(|b| b.radius > 0.0)
        .map(|b| b.radius)
        .collect();
    let mean_radius = if positive.is_empty() {
        0.0
    } else {
        positive.iter().sum::<f64>() / positive.len() as f64
    };
    let min_purity = balls
        .iter()
        .map(|b| b.measured_purity(data))
        .fold(1.0, f64::min);
    let overlapping_pairs = count_overlaps(balls, 1e-9);
    let mut covered = vec![false; data.n_samples()];
    for b in balls {
        for &m in &b.members {
            covered[m] = true;
        }
    }
    let coverage = covered.iter().filter(|&&c| c).count() as f64 / data.n_samples().max(1) as f64;
    CoverStats {
        n_balls,
        n_singletons,
        mean_ball_size,
        max_ball_size,
        mean_radius,
        min_purity,
        overlapping_pairs,
        coverage,
    }
}

/// Number of unordered ball pairs whose spheres overlap beyond `eps`.
/// The paper's key structural complaint about classic GBG; RD-GBG covers
/// must return 0.
///
/// Runs on the same max-radius KD-trees that answer RD-GBG's Eq.-4
/// conflict-radius query (the private `conflict` module): balls are
/// inserted one by one and each counts its overlaps against the balls
/// already indexed — a small buffer plus a pruned descent of each of the
/// `O(log m)` trees — instead of the O(m²) pairwise loop, with
/// bit-identical counts (the leaf predicate is exactly
/// [`GranularBall::overlaps`]; see `count_overlaps_pairwise`-vs-indexed
/// tests below).
#[must_use]
pub fn count_overlaps(balls: &[GranularBall], eps: f64) -> usize {
    let Some(first) = balls.first() else {
        return 0;
    };
    let mut index = crate::conflict::BallConflictIndex::new(first.center.len());
    let mut count = 0;
    for b in balls {
        count += index.count_overlapping(&b.center, b.radius, eps);
        index.push(&b.center, b.radius);
    }
    count
}

/// Reference O(m²) implementation of [`count_overlaps`], kept as the oracle
/// the indexed version is asserted against (see the `overlap_count_*`
/// tests). Prefer [`count_overlaps`] everywhere else.
#[must_use]
pub fn count_overlaps_pairwise(balls: &[GranularBall], eps: f64) -> usize {
    let mut count = 0;
    for (i, a) in balls.iter().enumerate() {
        for b in balls.iter().skip(i + 1) {
            if a.overlaps(b, eps) {
                count += 1;
            }
        }
    }
    count
}

/// Verifies the RD-GBG structural invariants, returning a human-readable
/// violation description or `Ok(())`. Used by tests and debug assertions.
///
/// # Errors
/// Returns `Err` describing the first violated invariant.
pub fn verify_rdgbg_invariants(data: &Dataset, model: &RdGbgModel) -> Result<(), String> {
    let mut seen = vec![0u32; data.n_samples()];
    for (bi, b) in model.balls.iter().enumerate() {
        if b.is_empty() {
            return Err(format!("ball {bi} is empty"));
        }
        if b.measured_purity(data) < 1.0 {
            return Err(format!("ball {bi} is impure"));
        }
        for &m in &b.members {
            if !b.contains_point(data.row(m), 1e-9) {
                return Err(format!("row {m} outside ball {bi}"));
            }
            seen[m] += 1;
        }
    }
    for &r in &model.noise {
        seen[r] += 1;
    }
    if let Some(row) = seen.iter().position(|&c| c != 1) {
        return Err(format!(
            "row {row} covered {} times (must be exactly once across balls + noise)",
            seen[row]
        ));
    }
    let overlaps = count_overlaps(&model.balls, 1e-9);
    if overlaps > 0 {
        return Err(format!("{overlaps} overlapping ball pairs"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdgbg::{rd_gbg, RdGbgConfig};
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn stats_on_rdgbg_cover() {
        let data = DatasetId::S5.generate(0.05, 1);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let stats = cover_stats(&data, &model.balls);
        assert_eq!(stats.min_purity, 1.0);
        assert_eq!(stats.overlapping_pairs, 0);
        assert!(stats.coverage > 0.9, "coverage {}", stats.coverage);
        assert!(stats.mean_ball_size >= 1.0);
        assert!(stats.n_balls > 0);
        assert!(verify_rdgbg_invariants(&data, &model).is_ok());
    }

    #[test]
    fn overlap_counter_detects_planted_overlap() {
        let mk = |x: f64, r: f64| GranularBall {
            center: vec![x],
            radius: r,
            label: 0,
            members: vec![0],
            center_row: None,
            purity: 1.0,
        };
        let balls = vec![mk(0.0, 1.0), mk(1.5, 1.0), mk(10.0, 1.0)];
        assert_eq!(count_overlaps(&balls, 1e-9), 1);
        assert_eq!(count_overlaps_pairwise(&balls, 1e-9), 1);
    }

    #[test]
    fn overlap_count_indexed_matches_pairwise_on_real_covers() {
        // The restricted cover (0 overlaps), the overlap-ablation cover
        // (many overlaps), and a pile of random balls must all agree with
        // the O(m²) oracle exactly.
        let data = DatasetId::S5.generate(0.05, 4);
        let restricted = rd_gbg(&data, &RdGbgConfig::default());
        let unrestricted = rd_gbg(
            &data,
            &RdGbgConfig {
                restrict_overlap: false,
                ..RdGbgConfig::default()
            },
        );
        for balls in [&restricted.balls, &unrestricted.balls] {
            assert_eq!(
                count_overlaps(balls, 1e-9),
                count_overlaps_pairwise(balls, 1e-9)
            );
        }
        assert_eq!(count_overlaps(&restricted.balls, 1e-9), 0);
        assert!(count_overlaps(&unrestricted.balls, 1e-9) > 0);
    }

    #[test]
    fn overlap_count_indexed_matches_pairwise_on_random_balls() {
        use gb_dataset::rng::rng_from_seed;
        use rand::Rng;
        let mut rng = rng_from_seed(11);
        let balls: Vec<GranularBall> = (0..400)
            .map(|i| GranularBall {
                center: vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)],
                radius: rng.gen_range(0.0..0.7),
                label: 0,
                members: vec![i],
                center_row: None,
                purity: 1.0,
            })
            .collect();
        let expected = count_overlaps_pairwise(&balls, 1e-9);
        assert!(expected > 0, "test should exercise overlapping geometry");
        assert_eq!(count_overlaps(&balls, 1e-9), expected);
    }

    #[test]
    fn verifier_flags_double_cover() {
        let data = Dataset::from_parts(vec![0.0, 1.0], vec![0, 0], 1, 1);
        let b = GranularBall {
            center: vec![0.0],
            radius: 1.0,
            label: 0,
            members: vec![0, 1],
            center_row: Some(0),
            purity: 1.0,
        };
        let model = RdGbgModel {
            balls: vec![b.clone(), b],
            noise: vec![],
            orphan_count: 0,
            iterations: 1,
            metric: gb_dataset::distance::Metric::SqEuclidean,
        };
        let err = verify_rdgbg_invariants(&data, &model).unwrap_err();
        assert!(
            err.contains("covered 2 times") || err.contains("overlap"),
            "{err}"
        );
    }

    #[test]
    fn verifier_flags_impurity() {
        let data = Dataset::from_parts(vec![0.0, 1.0], vec![0, 1], 1, 2);
        let model = RdGbgModel {
            balls: vec![GranularBall {
                center: vec![0.0],
                radius: 1.0,
                label: 0,
                members: vec![0, 1],
                center_row: Some(0),
                purity: 1.0,
            }],
            noise: vec![],
            orphan_count: 0,
            iterations: 1,
            metric: gb_dataset::distance::Metric::SqEuclidean,
        };
        let err = verify_rdgbg_invariants(&data, &model).unwrap_err();
        assert!(err.contains("impure"), "{err}");
    }
}
