//! ENN — Edited Nearest Neighbours undersampling (Wilson 1972).
//!
//! The second classic neighbourhood-cleaning rule next to Tomek links
//! (\[16\]): remove every sample whose `k = 3` nearest neighbours
//! majority-vote a *different* label. Where CNN keeps the borderline, ENN
//! deletes the noisy fringe — the same class-noise problem the paper's
//! RD-GBG attacks with its Eq.-2 density rules, making ENN a natural extra
//! baseline for the noise experiments.
//!
//! Following imbalanced-learn, the default edits only non-minority
//! classes; [`EnnConfig::edit_all`] switches to Wilson's original
//! all-classes rule (the variant SMOTE-ENN uses).

use gb_dataset::index::{self_join, BruteIndex};
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};

/// ENN configuration.
#[derive(Debug, Clone, Copy)]
pub struct EnnConfig {
    /// Neighbours consulted per sample (imblearn default 3).
    pub k_neighbors: usize,
    /// Edit every class instead of only non-minority classes.
    pub edit_all: bool,
}

impl Default for EnnConfig {
    fn default() -> Self {
        Self {
            k_neighbors: 3,
            edit_all: false,
        }
    }
}

/// The ENN sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditedNn {
    /// Configuration.
    pub config: EnnConfig,
}

/// Rows ENN would remove from `data`: samples whose k-NN majority label
/// disagrees with their own. `edit_all` controls whether minority-class
/// rows are eligible.
///
/// The eligible rows' neighbourhoods come from one parallel self-join
/// over a brute-force index of `data` (see [`self_join`]); the removal
/// list is in row order, and the result is deterministic for
/// any thread count and kernel tier.
#[must_use]
pub fn enn_removals(data: &Dataset, k: usize, edit_all: bool) -> Vec<usize> {
    if data.n_samples() == 0 {
        return Vec::new();
    }
    let counts = data.class_counts();
    let minority = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .min_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ia.cmp(ib)))
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let eligible: Vec<usize> = (0..data.n_samples())
        .filter(|&i| edit_all || data.label(i) != minority)
        .collect();
    let hoods = self_join(&BruteIndex::build(data), data, &eligible, k);
    eligible
        .into_iter()
        .zip(hoods.iter())
        .filter(|(i, hood)| {
            if hood.is_empty() {
                return false;
            }
            let mut votes = vec![0usize; data.n_classes()];
            for h in *hood {
                votes[data.label(h.row) as usize] += 1;
            }
            let winner = votes
                .iter()
                .enumerate()
                .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
                .map(|(c, _)| c as u32)
                .unwrap_or(0);
            winner != data.label(*i)
        })
        .map(|(i, _)| i)
        .collect()
}

impl Sampler for EditedNn {
    fn name(&self) -> &'static str {
        "ENN"
    }

    fn sample(&self, data: &Dataset, _seed: u64) -> SampleResult {
        let removals = enn_removals(data, self.config.k_neighbors, self.config.edit_all);
        let mut remove = vec![false; data.n_samples()];
        for r in removals {
            remove[r] = true;
        }
        let mut rows: Vec<usize> = (0..data.n_samples()).filter(|&r| !remove[r]).collect();
        if rows.is_empty() {
            // Pathological all-removed case (e.g. perfectly interleaved
            // labels): keep the input rather than emit an empty set.
            rows = (0..data.n_samples()).collect();
        }
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
    use gb_dataset::noise::inject_class_noise;

    /// Majority cluster with one mislabelled sample inside it.
    fn noisy_cluster() -> Dataset {
        Dataset::from_parts(
            vec![0.0, 0.1, 0.2, 0.3, 0.4, 8.0, 8.1, 8.2, 8.3],
            vec![0, 0, 1, 0, 0, 1, 1, 1, 1],
            1,
            2,
        )
    }

    #[test]
    fn removes_the_planted_noise_under_edit_all() {
        let d = noisy_cluster();
        // class 1 has 5 members vs 4 for class 0, so the flipped row (index
        // 2, label 1 inside the class-0 cluster) is minority-eligible only
        // under edit_all.
        let removals = enn_removals(&d, 3, true);
        assert!(removals.contains(&2), "{removals:?}");
    }

    #[test]
    fn default_spares_minority_class() {
        let d = noisy_cluster();
        let counts = d.class_counts();
        let minority = if counts[0] < counts[1] { 0u32 } else { 1u32 };
        let removals = enn_removals(&d, 3, false);
        assert!(removals.iter().all(|&r| d.label(r) != minority));
    }

    #[test]
    fn clean_separated_clusters_untouched() {
        let d = Dataset::from_parts(
            vec![0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2, 10.3],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
            1,
            2,
        );
        let out = EditedNn::default().sample(&d, 0);
        assert_eq!(out.dataset.n_samples(), d.n_samples());
    }

    #[test]
    fn cleans_injected_class_noise() {
        let clean = DatasetId::S5.generate(0.05, 1);
        let (noisy, flipped) = inject_class_noise(&clean, 0.2, 3);
        let out = EditedNn {
            config: EnnConfig {
                edit_all: true,
                ..Default::default()
            },
        }
        .sample(&noisy, 0);
        let kept = out.kept_rows.unwrap();
        // a majority of the flipped rows must be edited away
        let surviving_noise = flipped
            .iter()
            .filter(|r| kept.binary_search(r).is_ok())
            .count();
        assert!(
            (surviving_noise as f64) < 0.5 * flipped.len() as f64,
            "ENN kept {surviving_noise}/{} flipped rows",
            flipped.len()
        );
    }

    #[test]
    fn never_emits_empty_output() {
        // perfectly interleaved 1-D labels: edit_all would remove everything
        let d = Dataset::from_parts(
            (0..10).map(f64::from).collect(),
            (0..10).map(|i| (i % 2) as u32).collect(),
            1,
            2,
        );
        let out = EditedNn {
            config: EnnConfig {
                edit_all: true,
                k_neighbors: 2,
            },
        }
        .sample(&d, 0);
        assert!(out.dataset.n_samples() > 0);
    }

    #[test]
    fn deterministic() {
        let d = DatasetId::S2.generate(0.1, 1);
        let a = EditedNn::default().sample(&d, 0);
        let b = EditedNn::default().sample(&d, 1); // seed-free method
        assert_eq!(a.kept_rows, b.kept_rows);
    }
}
