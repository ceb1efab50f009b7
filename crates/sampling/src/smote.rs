//! SMOTE — Synthetic Minority Over-sampling Technique (Chawla et al. 2002).
//!
//! Every non-majority class is topped up to the majority-class count by
//! interpolating between a random class member and one of its `k = 5`
//! nearest same-class neighbours (imbalanced-learn's `auto` strategy and
//! default `k_neighbors`).

use crate::{class_index, row_hoods};
use gb_dataset::index::BruteIndex;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};
use rand::Rng;

/// SMOTE configuration.
#[derive(Debug, Clone, Copy)]
pub struct SmoteConfig {
    /// Neighbours per synthesis (imblearn default 5).
    pub k_neighbors: usize,
}

impl Default for SmoteConfig {
    fn default() -> Self {
        Self { k_neighbors: 5 }
    }
}

/// The SMOTE sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Smote {
    /// Configuration.
    pub config: SmoteConfig,
}

/// Per-class synthesis targets under imblearn's `auto` strategy: every class
/// is raised to the majority count.
#[must_use]
pub(crate) fn oversample_targets(data: &Dataset) -> Vec<usize> {
    let counts = data.class_counts();
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| if c > 0 { max - c } else { 0 })
        .collect()
}

/// Synthesizes `n_new` samples for `class` by SMOTE interpolation from the
/// donor rows `donors` (all of `class`), appending to `out`. `index` holds
/// every row of `data`.
///
/// All RNG decisions (base donor, neighbour pick, interpolation gap) are
/// drawn first, in exactly the order the naive per-sample loop draws them.
/// Hoods do not depend on the RNG, so each drawn donor's hood is then
/// fetched once — in one parallel pass over an index of this class's rows
/// only — however many samples it bases; the output is identical to the
/// naive loop's for any thread count and kernel tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn synthesize_for_class(
    data: &Dataset,
    index: &BruteIndex,
    donors: &[usize],
    class: u32,
    n_new: usize,
    k: usize,
    rng: &mut impl Rng,
    out: &mut Dataset,
) {
    if donors.is_empty() || n_new == 0 {
        return;
    }
    if donors.len() == 1 {
        // no neighbour to interpolate with: duplicate the lone donor
        for _ in 0..n_new {
            out.push_row(data.row(donors[0]), class);
        }
        return;
    }
    // The neighbour search below ranges over every same-class row of the
    // dataset (not just `donors`, which Borderline-SMOTE narrows to the
    // danger subset), so each donor's hit count is `min(k, class size − 1)`
    // — known before the search runs, which is what lets the pick index be
    // drawn up front.
    let class_size = data.class_counts()[class as usize];
    debug_assert!(class_size >= donors.len());
    let n_hits = k.min(class_size - 1);
    let plans: Vec<(usize, usize, f64)> = (0..n_new)
        .map(|_| {
            let base = donors[rng.gen_range(0..donors.len())];
            let pick = rng.gen_range(0..n_hits);
            let gap: f64 = rng.gen();
            (base, pick, gap)
        })
        .collect();
    let mut drawn: Vec<usize> = plans.iter().map(|&(base, _, _)| base).collect();
    drawn.sort_unstable();
    drawn.dedup();
    let hoods = row_hoods(&class_index(index, data, class), data, &drawn, k);
    for (base, pick, gap) in plans {
        let hood = &hoods[drawn.binary_search(&base).expect("a drawn donor")];
        let row: Vec<f64> = data
            .row(base)
            .iter()
            .zip(data.row(hood[pick].row))
            .map(|(a, b)| a + gap * (b - a))
            .collect();
        out.push_row(&row, class);
    }
}

impl Sampler for Smote {
    fn name(&self) -> &'static str {
        "SM"
    }

    fn sample(&self, data: &Dataset, seed: u64) -> SampleResult {
        let mut rng = rng_from_seed(seed);
        let mut out = data.clone();
        let targets = oversample_targets(data);
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
            synthesize_for_class(
                data,
                &index,
                &groups[class],
                class as u32,
                n_new,
                self.config.k_neighbors,
                &mut rng,
                &mut out,
            );
        }
        SampleResult {
            dataset: out,
            kept_rows: None, // contains synthetic rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn balances_class_counts() {
        let d = DatasetId::S9.generate(0.1, 1); // IR ~ 9.9
        let out = Smote::default().sample(&d, 0);
        let counts = out.dataset.class_counts();
        let max = *counts.iter().max().unwrap();
        assert!(counts.iter().all(|&c| c == max), "{counts:?}");
    }

    #[test]
    fn original_rows_preserved_as_prefix() {
        let d = DatasetId::S2.generate(0.1, 2);
        let out = Smote::default().sample(&d, 1);
        for i in 0..d.n_samples() {
            assert_eq!(out.dataset.row(i), d.row(i));
            assert_eq!(out.dataset.label(i), d.label(i));
        }
    }

    #[test]
    fn synthetic_rows_lie_between_class_members() {
        // 1-D minority at {0, 1}: synthetic values must be in [0, 1]
        let d = Dataset::from_parts(
            vec![0.0, 1.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0],
            vec![1, 1, 0, 0, 0, 0, 0, 0],
            1,
            2,
        );
        let out = Smote::default().sample(&d, 3);
        for i in d.n_samples()..out.dataset.n_samples() {
            assert_eq!(out.dataset.label(i), 1);
            let v = out.dataset.value(i, 0);
            assert!((0.0..=1.0).contains(&v), "synthetic {v} out of hull");
        }
    }

    #[test]
    fn lone_minority_sample_duplicated() {
        let d = Dataset::from_parts(vec![0.0, 5.0, 6.0, 7.0], vec![1, 0, 0, 0], 1, 2);
        let out = Smote::default().sample(&d, 0);
        let counts = out.dataset.class_counts();
        assert_eq!(counts[0], counts[1]);
        for i in d.n_samples()..out.dataset.n_samples() {
            assert_eq!(out.dataset.value(i, 0), 0.0);
        }
    }

    #[test]
    fn balanced_input_unchanged() {
        let d = DatasetId::S4.generate(0.05, 1); // IR 1.08
        let out = Smote::default().sample(&d, 2);
        let added = out.dataset.n_samples() - d.n_samples();
        let counts = d.class_counts();
        assert_eq!(added, counts.iter().max().unwrap() * 2 - d.n_samples());
    }

    #[test]
    fn deterministic() {
        let d = DatasetId::S9.generate(0.05, 4);
        let a = Smote::default().sample(&d, 9);
        let b = Smote::default().sample(&d, 9);
        assert_eq!(a.dataset.features(), b.dataset.features());
    }

    /// Regression: when `donors` is a strict subset of the class (as in
    /// Borderline-SMOTE's danger set), the parallel two-phase synthesis
    /// must match the naive sequential loop draw-for-draw — the neighbour
    /// search ranges over the whole class, not the donor subset, so the
    /// pre-drawn pick index must use the class size.
    #[test]
    fn subset_donors_match_sequential_reference() {
        use gb_dataset::index::NeighborIndex;

        // class 1: 8 clustered rows; class 0: far away.
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            feats.push(i as f64 * 0.1);
            labels.push(1u32);
        }
        for i in 0..6 {
            feats.push(50.0 + i as f64);
            labels.push(0u32);
        }
        let d = Dataset::from_parts(feats, labels, 1, 2);
        let donors = vec![0usize, 3, 5]; // strict subset of class 1
        let (k, n_new) = (5usize, 40usize);

        let index = BruteIndex::build(&d);
        let mut fast = d.empty_like();
        let mut rng = rng_from_seed(11);
        synthesize_for_class(&d, &index, &donors, 1, n_new, k, &mut rng, &mut fast);

        // Naive sequential reference: one same-class search per sample.
        let mut slow = d.empty_like();
        let mut rng = rng_from_seed(11);
        for _ in 0..n_new {
            let base = donors[rng.gen_range(0..donors.len())];
            let hits: Vec<usize> = BruteIndex::build(&d)
                .k_nearest_sq(d.row(base), d.n_samples(), Some(base))
                .into_iter()
                .map(|h| h.row)
                .filter(|&i| d.label(i) == 1)
                .take(k)
                .collect();
            let pick = hits[rng.gen_range(0..hits.len())];
            let gap: f64 = rng.gen();
            let row: Vec<f64> = d
                .row(base)
                .iter()
                .zip(d.row(pick).iter())
                .map(|(a, b)| a + gap * (b - a))
                .collect();
            slow.push_row(&row, 1);
        }
        assert_eq!(fast.features(), slow.features());
    }
}
