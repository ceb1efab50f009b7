//! GGBS — the general GB-based sampling baseline (Xia et al. \[23\], as
//! described in the paper's §III-B).
//!
//! Two stages: purity-threshold k-division GBG, then undersampling — *small*
//! balls (≤ 2·p members) contribute all their samples; *large* balls
//! contribute, per feature dimension, the homogeneous sample closest to each
//! of the two axis-intersection points `c ± r·e_d` (up to `2·p` samples).

use crate::gbg_kdiv::{is_large, k_division_gbg, KDivConfig};
use gb_dataset::index::assign_to_nearest;
use gb_dataset::Dataset;
use gbabs::{GranularBall, SampleResult, Sampler};

/// GGBS configuration.
#[derive(Debug, Clone, Copy)]
pub struct GgbsConfig {
    /// Purity threshold of the GBG stage (paper default: searched; 1.0 here
    /// unless stated otherwise — GBABS's advantage is not needing it).
    pub purity_threshold: f64,
}

impl Default for GgbsConfig {
    fn default() -> Self {
        Self {
            purity_threshold: 1.0,
        }
    }
}

/// The GGBS sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ggbs {
    /// Configuration.
    pub config: GgbsConfig,
}

/// Collects the `2·p` axis-extreme homogeneous samples of a large ball:
/// for each of the `2·p` axis-intersection targets `c ± r·e_d`, the
/// homogeneous member nearest to it. One batched [`assign_to_nearest`]
/// call answers all targets at once (targets are the points, the gathered
/// homogeneous members are the centroids); members are gathered in
/// ascending row order so the query's smaller-centroid tie-break is
/// exactly the old per-pair scan's smaller-row tie-break.
pub(crate) fn large_ball_samples(data: &Dataset, ball: &GranularBall, keep: &mut [bool]) {
    let p = data.n_features();
    let mut members: Vec<usize> = ball
        .members
        .iter()
        .copied()
        .filter(|&m| data.label(m) == ball.label)
        .collect();
    if members.is_empty() {
        return;
    }
    members.sort_unstable();
    let mut member_coords = Vec::with_capacity(members.len() * p);
    for &m in &members {
        member_coords.extend_from_slice(data.row(m));
    }
    // The 2·p surface targets: center ± radius along every axis.
    let mut targets = Vec::with_capacity(2 * p * p);
    for dim in 0..p {
        for sign in [-1.0f64, 1.0] {
            let base = targets.len();
            targets.extend_from_slice(&ball.center);
            targets[base + dim] += sign * ball.radius;
        }
    }
    let mut nearest = vec![0u32; 2 * p];
    assign_to_nearest(&targets, &member_coords, p, &mut nearest);
    for &m in &nearest {
        keep[members[m as usize]] = true;
    }
}

/// The GGBS undersampling stage over an arbitrary ball cover: small balls
/// (≤ 2·p members) contribute everything, large balls their axis-extreme
/// homogeneous samples. Returns sorted row indices. Public so ablations can
/// cross GGBS's *rule* with other granulators (e.g. RD-GBG covers).
#[must_use]
pub fn ggbs_rule_over_balls(data: &Dataset, balls: &[GranularBall]) -> Vec<usize> {
    let mut keep = vec![false; data.n_samples()];
    for ball in balls {
        if is_large(ball, data.n_features()) {
            large_ball_samples(data, ball, &mut keep);
        } else {
            for &m in &ball.members {
                keep[m] = true;
            }
        }
    }
    (0..data.n_samples()).filter(|&r| keep[r]).collect()
}

impl Sampler for Ggbs {
    fn name(&self) -> &'static str {
        "GGBS"
    }

    fn sample(&self, data: &Dataset, seed: u64) -> SampleResult {
        let balls = k_division_gbg(
            data,
            &KDivConfig {
                purity_threshold: self.config.purity_threshold,
                lloyd_iters: 3,
                seed,
            },
        );
        let rows = ggbs_rule_over_balls(data, &balls);
        SampleResult {
            dataset: data.select(&rows),
            kept_rows: Some(rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn output_is_subset() {
        let d = DatasetId::S5.generate(0.05, 1);
        let out = Ggbs::default().sample(&d, 0);
        let rows = out.kept_rows.as_ref().unwrap();
        assert_eq!(rows.len(), out.dataset.n_samples());
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        assert!(out.dataset.n_samples() <= d.n_samples());
    }

    #[test]
    fn small_balls_fully_kept() {
        // A dataset smaller than 2p forms a single small ball -> ratio 1.0
        let d = Dataset::from_parts(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], vec![0, 0, 1], 2, 2);
        let out = Ggbs::default().sample(&d, 0);
        assert_eq!(out.dataset.n_samples(), 3);
    }

    #[test]
    fn large_balls_capped_at_two_p() {
        // one big pure cluster: single large ball -> at most 2p samples
        let n = 200;
        let mut feats = Vec::new();
        for i in 0..n {
            feats.push((i % 20) as f64 * 0.01);
            feats.push((i / 20) as f64 * 0.01);
        }
        let d = Dataset::from_parts(feats, vec![0; n], 2, 1);
        let out = Ggbs::default().sample(&d, 0);
        assert!(
            out.dataset.n_samples() <= 4,
            "kept {} samples from one large ball",
            out.dataset.n_samples()
        );
    }

    #[test]
    fn compresses_separable_data() {
        let d = DatasetId::S11.generate(0.02, 2);
        let out = Ggbs::default().sample(&d, 1);
        assert!(
            out.ratio(&d) < 0.9,
            "expected compression on near-separable data, got {}",
            out.ratio(&d)
        );
    }

    #[test]
    fn high_dim_compression_fails_like_the_paper_says() {
        // p = 85 -> 2p = 170 per ball; with heavy overlap balls stay small
        // and GGBS keeps nearly everything (paper: ratio 1.0 on S7).
        let d = DatasetId::S7.generate(0.04, 2);
        let out = Ggbs::default().sample(&d, 1);
        assert!(
            out.ratio(&d) > 0.9,
            "expected near-1.0 ratio on S7, got {}",
            out.ratio(&d)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let d = DatasetId::S5.generate(0.03, 9);
        let a = Ggbs::default().sample(&d, 5);
        let b = Ggbs::default().sample(&d, 5);
        assert_eq!(a.kept_rows, b.kept_rows);
    }
}
