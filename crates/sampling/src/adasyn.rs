//! ADASYN — Adaptive Synthetic over-sampling (He et al. 2008).
//!
//! The SMOTE variant behind the paper's reference \[14\]: instead of
//! synthesizing uniformly across the minority class, each minority sample is
//! weighted by the fraction of *heterogeneous* samples among its `k` nearest
//! neighbours, so synthesis concentrates where the class is hardest to learn
//! — the borderline. That makes ADASYN the oversampling mirror image of the
//! paper's undersampling GBABS and a natural extra baseline.
//!
//! Multi-class handling follows imbalanced-learn's `auto` strategy: every
//! non-majority class is topped up to the majority count; neighbour scans
//! run over the whole dataset, synthesis interpolates between same-class
//! neighbours.

use crate::class_index;
use gb_dataset::index::{self_join, BruteIndex};
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};
use rand::Rng;

/// ADASYN configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdasynConfig {
    /// Neighbours per difficulty estimate and synthesis (imblearn default 5).
    pub k_neighbors: usize,
}

impl Default for AdasynConfig {
    fn default() -> Self {
        Self { k_neighbors: 5 }
    }
}

/// The ADASYN sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adasyn {
    /// Configuration.
    pub config: AdasynConfig,
}

/// Allocates `total` synthesis counts proportional to `weights` using the
/// largest-remainder method, so the counts sum to exactly `total`.
fn allocate(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || total == 0 {
        // Uniform fallback: spread `total` round-robin.
        let n = weights.len().max(1);
        return (0..weights.len())
            .map(|i| total / n + usize::from(i < total % n))
            .collect();
    }
    let raw: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut rema: Vec<(usize, f64)> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r - r.floor()))
        .collect();
    rema.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    for &(i, _) in rema.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

impl Sampler for Adasyn {
    fn name(&self) -> &'static str {
        "ADASYN"
    }

    fn sample(&self, data: &Dataset, seed: u64) -> SampleResult {
        let mut rng = rng_from_seed(seed);
        let mut out = data.clone();
        let k = self.config.k_neighbors;
        let targets = crate::smote::oversample_targets(data);
        if targets.iter().all(|&t| t == 0) {
            // Balanced (or empty) input: nothing to synthesize.
            return SampleResult {
                dataset: out,
                kept_rows: None,
            };
        }
        let index = BruteIndex::build(data);
        let groups = data.class_indices();
        for (class, &n_new) in targets.iter().enumerate() {
            let donors = &groups[class];
            if n_new == 0 || donors.is_empty() {
                continue;
            }
            let class = class as u32;
            // Difficulty r_i: heterogeneous fraction of the k-NN in D.
            let weights: Vec<f64> = self_join(&index, data, donors, k)
                .iter()
                .map(|hood| {
                    if hood.is_empty() {
                        return 0.0;
                    }
                    let hetero = hood.iter().filter(|h| data.label(h.row) != class).count();
                    hetero as f64 / hood.len() as f64
                })
                .collect();
            let counts = allocate(&weights, n_new);
            // Same-class partners of each active donor, from an index of
            // this class's rows only. They are RNG-independent, so they are
            // all fetched before the synthesis below consumes the stream.
            let active: Vec<usize> = donors
                .iter()
                .zip(&counts)
                .filter(|&(_, &g)| g > 0)
                .map(|(&d, _)| d)
                .collect();
            let partner_lists = self_join(&class_index(&index, data, class), data, &active, k);
            let mut partner_lists = partner_lists.iter();
            for (&donor, &g) in donors.iter().zip(counts.iter()) {
                if g == 0 {
                    continue;
                }
                // Empty when the donor is its class's only row — duplicate
                // then.
                let partners = partner_lists.next().expect("one hood per active donor");
                for _ in 0..g {
                    if partners.is_empty() {
                        out.push_row(data.row(donor), class);
                        continue;
                    }
                    let pick = &partners[rng.gen_range(0..partners.len())];
                    let gap: f64 = rng.gen();
                    let row: Vec<f64> = data
                        .row(donor)
                        .iter()
                        .zip(data.row(pick.row).iter())
                        .map(|(a, b)| a + gap * (b - a))
                        .collect();
                    out.push_row(&row, class);
                }
            }
        }
        SampleResult {
            dataset: out,
            kept_rows: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn allocate_hits_total_exactly() {
        let counts = allocate(&[0.2, 0.5, 0.3], 10);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts, vec![2, 5, 3]);
    }

    #[test]
    fn allocate_uniform_fallback_on_zero_weights() {
        let counts = allocate(&[0.0, 0.0, 0.0], 7);
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert!(counts.iter().all(|&c| c >= 2));
    }

    #[test]
    fn allocate_handles_empty_weights() {
        assert!(allocate(&[], 0).is_empty());
    }

    #[test]
    fn balances_class_counts() {
        let d = DatasetId::S9.generate(0.1, 1);
        let out = Adasyn::default().sample(&d, 0);
        let counts = out.dataset.class_counts();
        let max = *counts.iter().max().unwrap();
        assert!(counts.iter().all(|&c| c == max), "{counts:?}");
    }

    #[test]
    fn synthesis_concentrates_on_the_borderline() {
        // Minority cluster at 0 with one member pushed toward the majority
        // cluster at 10: the pushed member has the hetero-heavy
        // neighbourhood, so it must receive more synthetic offspring.
        let feats = vec![0.0, 0.2, 0.4, 8.0, 10.0, 10.2, 10.4, 10.6, 10.8, 11.0];
        let labels = vec![1, 1, 1, 1, 0, 0, 0, 0, 0, 0];
        let d = Dataset::from_parts(feats, labels, 1, 2);
        let out = Adasyn::default().sample(&d, 1);
        let synth: Vec<f64> = (d.n_samples()..out.dataset.n_samples())
            .map(|i| out.dataset.value(i, 0))
            .collect();
        assert!(!synth.is_empty());
        // offspring of the borderline donor (8.0) interpolate toward the
        // cluster, so at least one synthetic sample sits well above 0.4
        assert!(
            synth.iter().any(|&v| v > 1.0),
            "no synthesis near the borderline donor: {synth:?}"
        );
    }

    #[test]
    fn original_rows_preserved_as_prefix() {
        let d = DatasetId::S2.generate(0.1, 2);
        let out = Adasyn::default().sample(&d, 1);
        for i in 0..d.n_samples() {
            assert_eq!(out.dataset.row(i), d.row(i));
            assert_eq!(out.dataset.label(i), d.label(i));
        }
    }

    #[test]
    fn lone_minority_sample_duplicated() {
        let d = Dataset::from_parts(vec![0.0, 5.0, 6.0, 7.0], vec![1, 0, 0, 0], 1, 2);
        let out = Adasyn::default().sample(&d, 0);
        let counts = out.dataset.class_counts();
        assert_eq!(counts[0], counts[1]);
        for i in d.n_samples()..out.dataset.n_samples() {
            assert_eq!(out.dataset.value(i, 0), 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let d = DatasetId::S9.generate(0.05, 4);
        let a = Adasyn::default().sample(&d, 9);
        let b = Adasyn::default().sample(&d, 9);
        assert_eq!(a.dataset.features(), b.dataset.features());
    }
}
