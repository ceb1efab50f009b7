//! Borderline-SMOTE (Han et al. 2005, "borderline-1" variant).
//!
//! Only minority samples in DANGER — at least half but not all of their
//! `m = 10` nearest neighbours (over the whole dataset) belong to other
//! classes — donate synthetic samples; interpolation partners come from the
//! `k = 5` nearest same-class neighbours, as in plain SMOTE.

use crate::row_hoods;
use crate::smote::{oversample_targets, synthesize_for_class};
use gb_dataset::index::{BruteIndex, SqNeighbor};
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};

/// Borderline-SMOTE configuration.
#[derive(Debug, Clone, Copy)]
pub struct BorderlineSmoteConfig {
    /// Neighbourhood size for the DANGER test (imblearn default 10).
    pub m_neighbors: usize,
    /// Neighbours per synthesis (imblearn default 5).
    pub k_neighbors: usize,
}

impl Default for BorderlineSmoteConfig {
    fn default() -> Self {
        Self {
            m_neighbors: 10,
            k_neighbors: 5,
        }
    }
}

/// The Borderline-SMOTE sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct BorderlineSmote {
    /// Configuration.
    pub config: BorderlineSmoteConfig,
}

/// Classification of a minority sample in Han et al.'s scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// All m neighbours heterogeneous: treated as noise, never a donor.
    Noise,
    /// Half or more (but not all) heterogeneous: borderline donor.
    Danger,
    /// Majority of neighbours homogeneous: safe, not a donor.
    Safe,
}

/// The region of `row` given `hood`, its `m` nearest other rows.
pub(crate) fn region_of(data: &Dataset, row: usize, hood: &[SqNeighbor]) -> Region {
    let m_eff = hood.len().max(1);
    let het = hood
        .iter()
        .filter(|h| data.label(h.row) != data.label(row))
        .count();
    if het == m_eff {
        Region::Noise
    } else if 2 * het >= m_eff {
        Region::Danger
    } else {
        Region::Safe
    }
}

impl Sampler for BorderlineSmote {
    fn name(&self) -> &'static str {
        "BSM"
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
            if n_new == 0 {
                continue;
            }
            let hoods = row_hoods(&index, data, &groups[class], self.config.m_neighbors);
            let danger: Vec<usize> = groups[class]
                .iter()
                .zip(&hoods)
                .filter(|&(&r, hood)| region_of(data, r, hood) == Region::Danger)
                .map(|(&r, _)| r)
                .collect();
            // Han et al.: if no borderline sample exists, nothing is
            // synthesized for the class.
            synthesize_for_class(
                data,
                &index,
                &danger,
                class as u32,
                n_new,
                self.config.k_neighbors,
                &mut rng,
                &mut out,
            );
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
    use gb_dataset::index::NeighborIndex;

    /// [`region_of`] with the hood searched over every row of `data`.
    fn region(data: &Dataset, row: usize, m: usize) -> Region {
        let hood = BruteIndex::build(data).k_nearest_sq(data.row(row), m, Some(row));
        region_of(data, row, &hood)
    }

    /// Minority cluster on [4.0, 4.4] plus a boundary sample at 4.9 beside
    /// the majority cluster starting at 5.0.
    fn boundary_dataset() -> Dataset {
        let mut xs = vec![4.0, 4.1, 4.2, 4.3, 4.4, 4.9];
        let mut labels = vec![1u32; 6];
        for i in 0..20 {
            xs.push(5.0 + i as f64 * 0.1);
            labels.push(0);
        }
        Dataset::from_parts(xs, labels, 1, 2)
    }

    #[test]
    fn regions_classified_sensibly() {
        let d = boundary_dataset();
        // row 5 (x=4.9) sits beside the majority cluster: half-or-more of
        // its 10-NN are majority, but its minority friends are close -> Danger
        assert_eq!(region(&d, 5, 10), Region::Danger);
        // row 0 (x=4.0) is inside the minority cluster: its 5-NN are the
        // other minority samples -> Safe
        assert_eq!(region(&d, 0, 5), Region::Safe);
    }

    #[test]
    fn isolated_minority_is_noise() {
        let mut xs = vec![50.0];
        let mut labels = vec![1u32];
        for i in 0..20 {
            xs.push(i as f64 * 0.1);
            labels.push(0);
        }
        let d = Dataset::from_parts(xs, labels, 1, 2);
        assert_eq!(region(&d, 0, 10), Region::Noise);
    }

    #[test]
    fn synthesis_happens_near_boundary() {
        let d = boundary_dataset();
        let out = BorderlineSmote::default().sample(&d, 1);
        assert!(out.dataset.n_samples() > d.n_samples());
        // all synthetic minority samples interpolate from danger donors
        // toward other minority members, so they live in [4.0, 4.9]
        for i in d.n_samples()..out.dataset.n_samples() {
            assert_eq!(out.dataset.label(i), 1);
            let v = out.dataset.value(i, 0);
            assert!((4.0..=4.9).contains(&v), "synthetic at {v}");
        }
    }

    #[test]
    fn no_danger_samples_means_no_synthesis() {
        // a tight minority cluster of 11 far from the majority: every
        // minority sample's 10-NN are all minority -> all Safe, no donors
        let mut xs: Vec<f64> = (0..11).map(|i| i as f64 * 0.05).collect();
        let mut labels = vec![1u32; 11];
        for i in 0..15 {
            xs.push(100.0 + i as f64 * 0.1);
            labels.push(0);
        }
        let d = Dataset::from_parts(xs, labels, 1, 2);
        let out = BorderlineSmote::default().sample(&d, 0);
        assert_eq!(out.dataset.n_samples(), d.n_samples());
    }

    #[test]
    fn balances_when_danger_exists() {
        let d = DatasetId::S9.generate(0.1, 3);
        let out = BorderlineSmote::default().sample(&d, 2);
        let counts = out.dataset.class_counts();
        // either balanced or untouched (if no danger samples found)
        assert!(counts[1] <= counts[0]);
        assert!(out.dataset.n_samples() >= d.n_samples());
    }

    #[test]
    fn deterministic() {
        let d = DatasetId::S9.generate(0.05, 4);
        let a = BorderlineSmote::default().sample(&d, 9);
        let b = BorderlineSmote::default().sample(&d, 9);
        assert_eq!(a.dataset.features(), b.dataset.features());
    }
}
