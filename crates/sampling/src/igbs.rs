//! IGBS — GB-based sampling for imbalanced datasets (Xia et al. \[23\], as
//! described in the paper's §III-B).
//!
//! Same GBG stage as GGBS; the undersampling stage treats classes
//! asymmetrically: small balls keep everything; large *minority*-class balls
//! keep all their minority samples; large *majority*-class balls keep the
//! GGBS `2·p` axis samples. If the result is still more skewed than the
//! original toward the majority, random majority samples are topped up —
//! the paper's closing step ("if the class distribution is still skewed,
//! randomly sample more majority samples into S"), which we read as
//! rebalancing the *sampled* set (see DESIGN.md interpretation notes).

use crate::gbg_kdiv::{is_large, k_division_gbg, KDivConfig};
use crate::ggbs::large_ball_samples;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};
use rand::seq::SliceRandom;

/// IGBS configuration.
#[derive(Debug, Clone, Copy)]
pub struct IgbsConfig {
    /// Purity threshold of the GBG stage.
    pub purity_threshold: f64,
}

impl Default for IgbsConfig {
    fn default() -> Self {
        Self {
            purity_threshold: 1.0,
        }
    }
}

/// The IGBS sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Igbs {
    /// Configuration.
    pub config: IgbsConfig,
}

impl Sampler for Igbs {
    fn name(&self) -> &'static str {
        "IGBS"
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
        let counts = data.class_counts();
        let majority_class = counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);

        let mut keep = vec![false; data.n_samples()];
        for ball in &balls {
            if !is_large(ball, data.n_features()) {
                for &m in &ball.members {
                    keep[m] = true;
                }
            } else if ball.label != majority_class {
                // large minority ball: keep every sample of the ball's class
                for &m in &ball.members {
                    if data.label(m) == ball.label {
                        keep[m] = true;
                    }
                }
            } else {
                large_ball_samples(data, ball, &mut keep);
            }
        }

        // Top-up: if the sampled set under-represents the majority class
        // relative to the largest minority kept, add random majority rows.
        let mut kept_counts = vec![0usize; data.n_classes()];
        for (row, &k) in keep.iter().enumerate() {
            if k {
                kept_counts[data.label(row) as usize] += 1;
            }
        }
        let max_minority_kept = kept_counts
            .iter()
            .enumerate()
            .filter(|&(c, _)| c as u32 != majority_class)
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(0);
        let maj_kept = kept_counts[majority_class as usize];
        if maj_kept < max_minority_kept {
            let mut pool: Vec<usize> = (0..data.n_samples())
                .filter(|&r| !keep[r] && data.label(r) == majority_class)
                .collect();
            let mut rng = rng_from_seed(seed.wrapping_add(0x1685));
            pool.shuffle(&mut rng);
            for row in pool.into_iter().take(max_minority_kept - maj_kept) {
                keep[row] = true;
            }
        }

        let rows: Vec<usize> = (0..data.n_samples()).filter(|&r| keep[r]).collect();
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
    fn output_is_subset_of_input() {
        let d = DatasetId::S9.generate(0.05, 1);
        let out = Igbs::default().sample(&d, 0);
        let rows = out.kept_rows.as_ref().unwrap();
        for (pos, &row) in rows.iter().enumerate() {
            assert_eq!(out.dataset.row(pos), d.row(row));
        }
    }

    #[test]
    fn reduces_imbalance_on_skewed_data() {
        let d = DatasetId::S9.generate(0.1, 2); // IR ~ 9.9
        let out = Igbs::default().sample(&d, 1);
        let ir_before = d.imbalance_ratio();
        let ir_after = out.dataset.imbalance_ratio();
        assert!(
            ir_after <= ir_before,
            "IGBS should not worsen imbalance: {ir_before} -> {ir_after}"
        );
    }

    #[test]
    fn minority_class_never_lost() {
        let d = DatasetId::S6.generate(0.2, 3); // 5 classes, IR 175
        let out = Igbs::default().sample(&d, 1);
        let before = d.class_counts();
        let after = out.dataset.class_counts();
        for c in 0..d.n_classes() {
            if before[c] > 0 {
                assert!(after[c] > 0, "class {c} vanished");
            }
        }
    }

    #[test]
    fn majority_top_up_keeps_majority_at_least_at_minority_level() {
        let d = DatasetId::S9.generate(0.1, 5);
        let out = Igbs::default().sample(&d, 2);
        let counts = out.dataset.class_counts();
        let maj = *counts.iter().max().unwrap();
        let min_kept = *counts.iter().filter(|&&c| c > 0).min().unwrap();
        assert!(maj >= min_kept);
    }

    #[test]
    fn deterministic() {
        let d = DatasetId::S9.generate(0.05, 7);
        let a = Igbs::default().sample(&d, 3);
        let b = Igbs::default().sample(&d, 3);
        assert_eq!(a.kept_rows, b.kept_rows);
    }
}
