//! Digit-image-like high-dimensional generator (surrogate for USPS, S13).
//!
//! Each class gets a smooth random "glyph" prototype on a `side × side`
//! pixel grid (random low-frequency bumps), and samples are prototype +
//! pixel noise + a small random translation. This reproduces USPS's
//! character: 256 correlated dimensions, 10 classes, high intra-class
//! variance, moderately separable.

use super::{apportion, randn};
use crate::dataset::Dataset;
use crate::rng::rng_from_seed;
use rand::Rng;

/// Parameters of the glyph generator.
#[derive(Debug, Clone)]
pub struct DigitsSpec {
    /// Total samples.
    pub n_samples: usize,
    /// Image side length (features = side²).
    pub side: usize,
    /// Number of classes ("digits").
    pub n_classes: usize,
    /// Per-class weights (normalized internally).
    pub class_weights: Vec<f64>,
    /// Pixel noise standard deviation (prototypes have unit-ish contrast).
    pub pixel_noise: f64,
    /// Maximum translation in pixels applied per sample.
    pub max_shift: usize,
}

impl DigitsSpec {
    /// USPS-like defaults: 16×16 = 256 features, 10 classes, IR ≈ 2.19.
    #[must_use]
    pub fn usps_like(n_samples: usize) -> Self {
        Self {
            n_samples,
            side: 16,
            n_classes: 10,
            class_weights: super::class_weights_for_ir(10, 2.19),
            pixel_noise: 0.25,
            max_shift: 1,
        }
    }

    fn prototype(&self, rng: &mut impl Rng) -> Vec<f64> {
        let s = self.side;
        let mut img = vec![0.0; s * s];
        // 4–7 Gaussian bumps of random position/width/sign form a "glyph"
        let bumps = rng.gen_range(4..8);
        for _ in 0..bumps {
            let cx = rng.gen_range(0.2..0.8) * s as f64;
            let cy = rng.gen_range(0.2..0.8) * s as f64;
            let sigma = rng.gen_range(1.2..2.8);
            let amp = if rng.gen::<f64>() < 0.8 { 1.0 } else { -0.6 };
            for y in 0..s {
                for x in 0..s {
                    let dx = x as f64 - cx;
                    let dy = y as f64 - cy;
                    img[y * s + x] += amp * (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp();
                }
            }
        }
        img
    }

    /// Generates the dataset.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let s = self.side;
        let p = s * s;
        let prototypes: Vec<Vec<f64>> = (0..self.n_classes)
            .map(|_| self.prototype(&mut rng))
            .collect();
        let counts = apportion(self.n_samples, &self.class_weights);
        let mut features = Vec::with_capacity(self.n_samples * p);
        let mut labels = Vec::with_capacity(self.n_samples);
        let shift_range = self.max_shift as i64;
        for (class, &count) in counts.iter().enumerate() {
            let proto = &prototypes[class];
            for _ in 0..count {
                let dx = rng.gen_range(-shift_range..=shift_range);
                let dy = rng.gen_range(-shift_range..=shift_range);
                for y in 0..s as i64 {
                    for x in 0..s as i64 {
                        let sx = (x - dx).clamp(0, s as i64 - 1) as usize;
                        let sy = (y - dy).clamp(0, s as i64 - 1) as usize;
                        features.push(proto[sy * s + sx] + self.pixel_noise * randn(&mut rng));
                    }
                }
                labels.push(class as u32);
            }
        }
        Dataset::from_parts(features, labels, p, self.n_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BruteIndex, NeighborIndex};
    use crate::split::stratified_subsample;

    #[test]
    fn usps_like_shape() {
        let d = DigitsSpec::usps_like(930).generate(1);
        assert_eq!(d.n_samples(), 930);
        assert_eq!(d.n_features(), 256);
        assert_eq!(d.n_classes(), 10);
        let ir = d.imbalance_ratio();
        assert!(ir > 1.5 && ir < 3.0, "IR {ir}");
    }

    #[test]
    fn classes_are_mostly_knn_separable() {
        let d = DigitsSpec::usps_like(600).generate(4);
        let keep = stratified_subsample(&d, 300, 0);
        let s = d.select(&keep);
        let index = BruteIndex::build(&s);
        let mut correct = 0;
        for i in 0..s.n_samples() {
            let nn = index.nearest_sq(s.row(i), Some(i)).unwrap();
            if s.label(nn.row) == s.label(i) {
                correct += 1;
            }
        }
        let acc = correct as f64 / s.n_samples() as f64;
        assert!(acc > 0.8, "1-NN LOO accuracy {acc}");
    }

    #[test]
    fn deterministic() {
        let a = DigitsSpec::usps_like(100).generate(9);
        let b = DigitsSpec::usps_like(100).generate(9);
        assert_eq!(a.features(), b.features());
    }
}
