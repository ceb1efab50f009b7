//! Tomek links undersampling (Tomek 1976).
//!
//! A Tomek link is a pair of mutually-nearest neighbours with different
//! labels. Following imbalanced-learn's default, only the *majority-class*
//! member of each link is removed (removing both is the other classic
//! variant, available via [`TomekConfig::remove_both`]).

use crate::row_hoods;
use gb_dataset::index::BruteIndex;
use gb_dataset::Dataset;
use gbabs::{SampleResult, Sampler};

/// Tomek-links configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TomekConfig {
    /// Remove both endpoints of each link instead of just the majority one.
    pub remove_both: bool,
}

/// The Tomek-links sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct TomekLinks {
    /// Configuration.
    pub config: TomekConfig,
}

/// Finds all Tomek links as index pairs `(a, b)` with `a < b`.
///
/// The all-rows nearest-neighbour pass (the O(n²) part) is one parallel
/// self-join over a brute-force index of `data` (see
/// [`NeighborIndex::k_nearest_sq_par`](gb_dataset::index::NeighborIndex::k_nearest_sq_par));
/// the mutual-pair sweep that follows is linear and stays sequential.
#[must_use]
pub fn find_tomek_links(data: &Dataset) -> Vec<(usize, usize)> {
    let n = data.n_samples();
    if n == 0 {
        return Vec::new();
    }
    let rows: Vec<usize> = (0..n).collect();
    let nn: Vec<Option<usize>> = row_hoods(&BruteIndex::build(data), data, &rows, 1)
        .into_iter()
        .map(|hood| hood.first().map(|h| h.row))
        .collect();
    let mut links = Vec::new();
    for a in 0..n {
        let Some(b) = nn[a] else { continue };
        if b > a && nn[b] == Some(a) && data.label(a) != data.label(b) {
            links.push((a, b));
        }
    }
    links
}

impl Sampler for TomekLinks {
    fn name(&self) -> &'static str {
        "Tomek"
    }

    fn sample(&self, data: &Dataset, _seed: u64) -> SampleResult {
        let counts = data.class_counts();
        let majority = counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let mut remove = vec![false; data.n_samples()];
        for (a, b) in find_tomek_links(data) {
            if self.config.remove_both {
                remove[a] = true;
                remove[b] = true;
            } else {
                if data.label(a) == majority {
                    remove[a] = true;
                }
                if data.label(b) == majority {
                    remove[b] = true;
                }
            }
        }
        let rows: Vec<usize> = (0..data.n_samples()).filter(|&r| !remove[r]).collect();
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

    /// Two clusters with a cross-class mutual-NN pair in the middle.
    fn linked_dataset() -> Dataset {
        // majority (0) at 0.0,0.2,0.4 and 4.0; minority (1) at 4.3 and 8/8.2
        // pair (4.0, 4.3) are mutual nearest neighbours of different class
        Dataset::from_parts(
            vec![0.0, 0.2, 0.4, 4.0, 4.3, 8.0, 8.2, 8.4],
            vec![0, 0, 0, 0, 1, 0, 0, 0],
            1,
            2,
        )
    }

    #[test]
    fn detects_the_planted_link() {
        let d = linked_dataset();
        let links = find_tomek_links(&d);
        assert_eq!(links, vec![(3, 4)]);
    }

    #[test]
    fn removes_only_majority_endpoint_by_default() {
        let d = linked_dataset();
        let out = TomekLinks::default().sample(&d, 0);
        let rows = out.kept_rows.unwrap();
        assert!(!rows.contains(&3), "majority endpoint must go");
        assert!(rows.contains(&4), "minority endpoint must stay");
        assert_eq!(rows.len(), d.n_samples() - 1);
    }

    #[test]
    fn remove_both_variant() {
        let d = linked_dataset();
        let out = TomekLinks {
            config: TomekConfig { remove_both: true },
        }
        .sample(&d, 0);
        let rows = out.kept_rows.unwrap();
        assert!(!rows.contains(&3));
        assert!(!rows.contains(&4));
    }

    #[test]
    fn clean_separable_data_untouched() {
        let d = Dataset::from_parts(
            vec![0.0, 0.1, 0.2, 10.0, 10.1, 10.2],
            vec![0, 0, 0, 1, 1, 1],
            1,
            2,
        );
        let out = TomekLinks::default().sample(&d, 0);
        assert_eq!(out.dataset.n_samples(), d.n_samples());
    }

    #[test]
    fn never_grows_and_never_drops_minority() {
        let d = DatasetId::S9.generate(0.1, 1);
        let out = TomekLinks::default().sample(&d, 0);
        assert!(out.dataset.n_samples() <= d.n_samples());
        let before = d.class_counts();
        let after = out.dataset.class_counts();
        assert_eq!(before[1], after[1], "minority count must be preserved");
    }
}
