//! Banana-shaped two-class 2-D generator (surrogate for KEEL `banana`, S5).
//!
//! Two interleaved crescents — the classic "two moons" geometry — giving the
//! curved, locally simple class boundary the paper visualizes in Fig. 5(a)
//! and on which GBABS achieves its lowest sampling ratio (~29 %).

use super::{apportion, randn};
use crate::dataset::Dataset;
use crate::rng::rng_from_seed;
use rand::Rng;
use std::f64::consts::PI;

/// Parameters of the two-crescent generator.
#[derive(Debug, Clone)]
pub struct BananaSpec {
    /// Total number of samples.
    pub n_samples: usize,
    /// Gaussian jitter added to each point (relative to unit crescent radius).
    pub noise: f64,
    /// Majority/minority ratio (class 0 is the majority).
    pub imbalance_ratio: f64,
    /// Fraction of samples generated on the *other* class's crescent while
    /// keeping their own label (fine-grained class interleaving; see
    /// `gaussian::BlobSpec::scatter`).
    pub scatter: f64,
}

impl Default for BananaSpec {
    fn default() -> Self {
        Self {
            n_samples: 5300,
            noise: 0.12,
            imbalance_ratio: 1.23,
            scatter: 0.0,
        }
    }
}

impl BananaSpec {
    /// Generates the dataset (2 features, 2 classes).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let weights = [
            self.imbalance_ratio / (1.0 + self.imbalance_ratio),
            1.0 / (1.0 + self.imbalance_ratio),
        ];
        let counts = apportion(self.n_samples, &weights);
        let mut features = Vec::with_capacity(self.n_samples * 2);
        let mut labels = Vec::with_capacity(self.n_samples);
        for (class, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let t = rng.gen::<f64>() * PI;
                let shape = if self.scatter > 0.0 && rng.gen::<f64>() < self.scatter {
                    1 - class
                } else {
                    class
                };
                let (mut x, mut y) = if shape == 0 {
                    (t.cos(), t.sin())
                } else {
                    // second crescent: shifted and flipped
                    (1.0 - t.cos(), 0.5 - t.sin())
                };
                x += self.noise * randn(&mut rng);
                y += self.noise * randn(&mut rng);
                features.push(x);
                features.push(y);
                labels.push(class as u32);
            }
        }
        Dataset::from_parts(features, labels, 2, 2).with_name("banana")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BruteIndex, NeighborIndex};

    #[test]
    fn shape_and_imbalance() {
        let d = BananaSpec::default().generate(42);
        assert_eq!(d.n_samples(), 5300);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 2);
        let ir = d.imbalance_ratio();
        assert!((ir - 1.23).abs() < 0.05, "IR {ir}");
    }

    #[test]
    fn crescents_are_knn_separable_at_low_noise() {
        let d = BananaSpec {
            n_samples: 600,
            noise: 0.05,
            imbalance_ratio: 1.0,
            scatter: 0.0,
        }
        .generate(7);
        // 1-NN leave-one-out accuracy should be high on clean moons
        let index = BruteIndex::build(&d);
        let mut correct = 0;
        for i in 0..d.n_samples() {
            let nn = index.nearest_sq(d.row(i), Some(i)).unwrap();
            if d.label(nn.row) == d.label(i) {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / d.n_samples() as f64 > 0.95,
            "1-NN LOO accuracy too low: {correct}/600"
        );
    }

    #[test]
    fn bounded_support() {
        let d = BananaSpec::default().generate(3);
        let (lo, hi) = d.column_bounds();
        assert!(lo.iter().all(|&v| v > -3.0));
        assert!(hi.iter().all(|&v| v < 4.0));
    }
}
