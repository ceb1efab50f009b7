//! VP-tree (vantage-point tree) exact nearest-neighbour index.
//!
//! The paper's conclusion flags GBABS's cost "when facing high-dimensional
//! feature spaces" as future work. KD-trees (see [`crate::kdtree`])
//! degenerate to linear scans beyond a few dozen dimensions because their
//! axis-aligned splits stop pruning; metric trees split on *distance to a
//! vantage point* instead, which keeps pruning whenever the data has low
//! intrinsic dimensionality regardless of the ambient dimension — exactly
//! the regime of the catalog's S12 (128-d gas-sensor) and S13 (256-d USPS)
//! surrogates.
//!
//! The index is exact: queries return the same neighbours as the
//! brute-force reference [`crate::index::BruteIndex`] (property-tested), so it
//! can be swapped under any algorithm in the workspace. Like the KD-tree it
//! implements [`NeighborIndex`]: squared-distance acceptance (so results
//! are bit-identical to the other backends), tombstone deletion, and
//! periodic compaction. Triangle-inequality pruning needs real distances,
//! so each *visited node* pays one `sqrt`; accepted candidates carry their
//! squared distance unchanged. Prune bounds are relaxed by a hair
//! (`1e−12` of the distances they are made of, then `1e−12` of their own
//! size) so rounding can only cause an extra visit, never a missed exact
//! neighbour.
//!
//! Partitions of at most the build-time bucket size (default
//! [`VP_LEAF_SIZE`] = 16, set per width class by
//! [`crate::distance::calibrated_leaf_size`]) stop splitting and become
//! bucket leaves, shrinking the arena. The leaves keep their coordinates in
//! a **leaf-contiguous** buffer that a leaf visit scans with the index
//! module's shared scan (the KD-tree's and the brute backend's too), and
//! vantage distances use the dispatched lane-tree kernel. Bit-identity
//! across backends holds in every case — see `gb_dataset::distance`'s
//! width-keyed contract.
//!
//! Metric support: acceptance runs in kernel space (squared Euclidean,
//! L1, or chord² for cosine over normalized rows); pruning runs in **rank
//! space** (`Metric::rank_of` of the kernel value), where every supported
//! metric satisfies the triangle inequality — `sqrt` for squared
//! Euclidean, identity for Manhattan, chord (`sqrt`) for cosine. Rank
//! bounds convert back to kernel space via [`Metric::plane_gap`] before
//! comparing against the best-k heap.

use crate::dataset::Dataset;
use crate::distance::{manhattan_dispatched, sq_euclidean_dispatched, Metric};
use crate::index::{KBest, Leaves, NeighborIndex, RangeBound, SqNeighbor, Tombstones};
use std::cmp::Ordering;

/// A node of the tree (arena-allocated; `u32::MAX` marks "no child").
#[derive(Debug, Clone)]
enum Node {
    /// An interior metric ball around a vantage point.
    Ball {
        /// Row index of the vantage point.
        vantage: u32,
        /// Median distance from the vantage point to the rows in its
        /// subtree; rows with distance ≤ `mu` descend inside, the rest
        /// outside.
        mu: f64,
        inside: u32,
        outside: u32,
    },
    /// A bucket — partitions of at most `leaf_size` rows stop splitting:
    /// the slot range `start..end` of the tree's [`Leaves`].
    Leaf((usize, usize)),
}

const NONE: u32 = u32::MAX;

/// Default partition size below which a bucket leaf is emitted instead of
/// another vantage split. Matches the KD-tree's default bucket size: the
/// metric pruning gained by splitting a handful of rows never beats one
/// contiguous SIMD sweep over them. [`VpTree::build_with`] accepts a
/// calibrated size instead.
pub const VP_LEAF_SIZE: usize = 16;

/// Conservative slack on prune bounds: compensates `sqrt` rounding so the
/// traversal can only over-visit, never over-prune. A triangle bound
/// `|d − mu|` first gives up `1e-12 · (d + mu)`: `d` and `mu` each carry a
/// rounding error of a few ulps of their own size, which dwarfs the bound
/// itself when the query nearly coincides with rows at distance `≈ mu`
/// from the vantage point (L2-normalized collinear rows lie ~1e-16 apart).
/// The expressions stay inline at each bound: a helper function for them
/// moved the KD-tree's code and slowed its queries at p = 12 by ~8%.
const PRUNE_SLACK: f64 = 1.0 - 1e-12;

/// An immutable VP-tree over the rows of a dataset snapshot.
#[derive(Debug, Clone)]
pub struct VpTree {
    nodes: Vec<Node>,
    root: u32,
    /// Flattened copy of the indexed points (row-major, original row
    /// order; used when (re)building).
    points: Vec<f64>,
    /// The buckets' rows and packed coordinates. Rebuilt with the arena.
    leaves: Leaves,
    /// Copied labels (for heterogeneous queries).
    labels: Vec<u32>,
    n_features: usize,
    n_rows: usize,
    leaf_size: usize,
    metric: Metric,
    tombstones: Tombstones,
}

impl VpTree {
    /// Builds the index over every row of `data`.
    ///
    /// Vantage points are chosen deterministically (the first row of each
    /// partition), so identical inputs build identical trees.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    #[must_use]
    pub fn build(data: &Dataset) -> Self {
        Self::build_with(data, VP_LEAF_SIZE, Metric::SqEuclidean)
    }

    /// Builds the index with an explicit bucket size under `metric`. Cosine
    /// stores an L2-normalized copy of the rows (queries are normalized on
    /// entry), so all tree geometry runs over unit vectors.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `leaf_size == 0`.
    #[must_use]
    pub fn build_with(data: &Dataset, leaf_size: usize, metric: Metric) -> Self {
        assert!(leaf_size > 0, "leaf size must be positive");
        assert!(data.n_samples() > 0, "cannot index an empty dataset");
        let n = data.n_samples();
        let mut points = data.features().to_vec();
        metric.prepare_rows(&mut points, data.n_features());
        let mut tree = Self {
            nodes: Vec::with_capacity(n / leaf_size.max(1) * 2 + 1),
            root: NONE,
            points,
            leaves: Leaves::with_capacity(n, data.n_features()),
            labels: data.labels().to_vec(),
            n_features: data.n_features(),
            n_rows: n,
            leaf_size,
            metric,
            tombstones: Tombstones::new(n),
        };
        let mut rows: Vec<u32> = (0..n as u32).collect();
        tree.root = tree.build_rec(&mut rows);
        tree
    }

    /// Rebuilds the node arena over the currently alive rows.
    fn rebuild(&mut self) {
        self.nodes.clear();
        self.leaves.clear();
        let mut rows = self.tombstones.begin_rebuild();
        self.root = self.build_rec(&mut rows);
    }

    /// Appends a bucket leaf over `rows`.
    fn push_leaf(&mut self, rows: &[u32]) -> u32 {
        let slots = self
            .leaves
            .push(rows, |row| row, &self.points, self.n_features);
        self.nodes.push(Node::Leaf(slots));
        self.nodes.len() as u32 - 1
    }

    fn row(&self, r: u32) -> &[f64] {
        let r = r as usize;
        &self.points[r * self.n_features..(r + 1) * self.n_features]
    }

    /// Recursively builds a subtree over `rows` (consumed) and returns its
    /// arena index, or `NONE` for an empty slice.
    fn build_rec(&mut self, rows: &mut [u32]) -> u32 {
        if rows.is_empty() {
            return NONE;
        }
        if rows.len() <= self.leaf_size {
            return self.push_leaf(rows);
        }
        let (&vantage, rest) = rows.split_first().expect("non-empty partition");
        // Partition the remaining rows by rank-space distance-to-vantage
        // around the median: the inside half gets at least one row, and mu
        // is the largest inside distance so "≤ mu" matches the partition
        // exactly.
        let mut sorted: Vec<(f64, u32)> = rest
            .iter()
            .map(|&r| {
                (
                    self.metric
                        .rank_of(self.metric.pair(self.row(vantage), self.row(r))),
                    r,
                )
            })
            .collect();
        sorted.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        let split = (sorted.len() / 2).max(1);
        let mu = sorted[split - 1].0;
        let mut inside_rows: Vec<u32> = sorted[..split].iter().map(|&(_, r)| r).collect();
        let mut outside_rows: Vec<u32> = sorted[split..].iter().map(|&(_, r)| r).collect();
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Ball {
            vantage,
            mu,
            inside: NONE,
            outside: NONE,
        });
        let inside = self.build_rec(&mut inside_rows);
        let outside = self.build_rec(&mut outside_rows);
        if let Node::Ball {
            inside: i,
            outside: o,
            ..
        } = &mut self.nodes[id as usize]
        {
            *i = inside;
            *o = outside;
        }
        id
    }

    /// Number of indexed rows (alive + deleted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the index holds no rows (never: construction panics).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Shared best-k traversal with a row filter. Acceptance happens in
    /// squared space (exact ties by row); pruning uses real distances with
    /// [`PRUNE_SLACK`].
    /// `pair`, `rank`, and `gap` are the metric's kernel, rank map, and
    /// plane-gap bound monomorphized by the public entry points — the
    /// traversal touches one vantage per node and an enum dispatch per
    /// visit is measurable at low widths, so the metric branch happens
    /// once per query (same rationale as the KD-tree traversals).
    #[allow(clippy::too_many_arguments)]
    fn search_filtered(
        &self,
        node: u32,
        query: &[f64],
        skip: Option<usize>,
        keep: &impl Fn(u32) -> bool,
        pair: &impl Fn(&[f64], &[f64]) -> f64,
        rank: &impl Fn(f64) -> f64,
        gap: &impl Fn(f64) -> f64,
        best: &mut KBest,
    ) {
        if node == NONE {
            return;
        }
        let (vantage, mu, inside, outside) = match &self.nodes[node as usize] {
            Node::Leaf(slots) => {
                self.leaves.scan(
                    *slots,
                    self.metric,
                    query,
                    |r| self.tombstones.is_alive(r as usize) && skip != Some(r as usize) && keep(r),
                    |r, d| best.insert(d, r as usize),
                );
                return;
            }
            Node::Ball {
                vantage,
                mu,
                inside,
                outside,
            } => (*vantage, *mu, *inside, *outside),
        };
        let d_sq = pair(query, self.row(vantage));
        if self.tombstones.is_alive(vantage as usize)
            && skip != Some(vantage as usize)
            && keep(vantage)
        {
            best.insert(d_sq, vantage as usize);
        }
        let d = rank(d_sq);
        // Visit the likelier side first, prune the other with the
        // triangle-inequality bound (valid in rank space for every
        // supported metric).
        let (first, second, second_bound) = if d <= mu {
            (inside, outside, mu - d)
        } else {
            (outside, inside, d - mu)
        };
        self.search_filtered(first, query, skip, keep, pair, rank, gap, best);
        let b = (second_bound - 1e-12 * (d + mu)).max(0.0) * PRUNE_SLACK;
        if gap(b) <= best.worst_sq() {
            self.search_filtered(second, query, skip, keep, pair, rank, gap, best);
        }
    }

    /// `pair` and `rank` are monomorphized by [`NeighborIndex::range_sq`]
    /// — see [`Self::search_filtered`].
    #[allow(clippy::too_many_arguments)]
    fn range_rec(
        &self,
        node: u32,
        query: &[f64],
        sq_bound: f64,
        radius: f64,
        bound: RangeBound,
        skip: Option<usize>,
        pair: &impl Fn(&[f64], &[f64]) -> f64,
        rank: &impl Fn(f64) -> f64,
        out: &mut Vec<SqNeighbor>,
    ) {
        if node == NONE {
            return;
        }
        let (vantage, mu, inside, outside) = match &self.nodes[node as usize] {
            Node::Leaf(slots) => {
                self.leaves.scan(
                    *slots,
                    self.metric,
                    query,
                    |r| self.tombstones.is_alive(r as usize) && skip != Some(r as usize),
                    |r, d| {
                        if bound.admits(d, sq_bound) {
                            out.push(SqNeighbor {
                                row: r as usize,
                                sq_dist: d,
                            });
                        }
                    },
                );
                return;
            }
            Node::Ball {
                vantage,
                mu,
                inside,
                outside,
            } => (*vantage, *mu, *inside, *outside),
        };
        let d_sq = pair(query, self.row(vantage));
        if self.tombstones.is_alive(vantage as usize)
            && skip != Some(vantage as usize)
            && bound.admits(d_sq, sq_bound)
        {
            out.push(SqNeighbor {
                row: vantage as usize,
                sq_dist: d_sq,
            });
        }
        let d = rank(d_sq);
        // Inside subtree: distances to vantage ≤ mu, so the minimum
        // possible distance to the query is d − mu; outside: mu − d.
        let inside_min = (d - mu - 1e-12 * (d + mu)).max(0.0) * PRUNE_SLACK;
        if inside_min <= radius {
            self.range_rec(
                inside, query, sq_bound, radius, bound, skip, pair, rank, out,
            );
        }
        let outside_min = (mu - d - 1e-12 * (d + mu)).max(0.0) * PRUNE_SLACK;
        if outside_min <= radius {
            self.range_rec(
                outside, query, sq_bound, radius, bound, skip, pair, rank, out,
            );
        }
    }
}

impl NeighborIndex for VpTree {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn n_alive(&self) -> usize {
        self.tombstones.n_alive()
    }

    fn is_alive(&self, row: usize) -> bool {
        self.tombstones.is_alive(row)
    }

    fn delete(&mut self, row: usize) -> bool {
        match self.tombstones.delete(row) {
            None => false,
            Some(needs_rebuild) => {
                if needs_rebuild {
                    self.rebuild();
                }
                true
            }
        }
    }

    fn k_nearest_sq(&self, query: &[f64], k: usize, skip: Option<usize>) -> Vec<SqNeighbor> {
        assert_eq!(query.len(), self.n_features, "query width mismatch");
        if k == 0 {
            return Vec::new();
        }
        let query = self.metric.prepare_query(query);
        let mut best = KBest::new(k);
        // Branch on the metric once per query; each arm must match
        // `Metric::{pair, rank_of, plane_gap}` exactly so answers stay
        // bit-identical with the enum-dispatched forms.
        match self.metric {
            Metric::Manhattan => self.search_filtered(
                self.root,
                &query,
                skip,
                &|_| true,
                &manhattan_dispatched,
                &|d: f64| d,
                &|d: f64| d.abs(),
                &mut best,
            ),
            Metric::SqEuclidean | Metric::Cosine => self.search_filtered(
                self.root,
                &query,
                skip,
                &|_| true,
                &sq_euclidean_dispatched,
                &|d: f64| d.sqrt(),
                &|d: f64| d * d,
                &mut best,
            ),
        }
        best.into_sorted()
    }

    fn nearest_heterogeneous_sq(
        &self,
        query: &[f64],
        label: u32,
        skip: Option<usize>,
    ) -> Option<SqNeighbor> {
        let query = self.metric.prepare_query(query);
        let mut best = KBest::new(1);
        let keep = |r: u32| self.labels[r as usize] != label;
        match self.metric {
            Metric::Manhattan => self.search_filtered(
                self.root,
                &query,
                skip,
                &keep,
                &manhattan_dispatched,
                &|d: f64| d,
                &|d: f64| d.abs(),
                &mut best,
            ),
            Metric::SqEuclidean | Metric::Cosine => self.search_filtered(
                self.root,
                &query,
                skip,
                &keep,
                &sq_euclidean_dispatched,
                &|d: f64| d.sqrt(),
                &|d: f64| d * d,
                &mut best,
            ),
        }
        best.into_sorted().first().copied()
    }

    fn range_sq(
        &self,
        query: &[f64],
        sq_bound: f64,
        bound: RangeBound,
        skip: Option<usize>,
    ) -> Vec<SqNeighbor> {
        assert_eq!(query.len(), self.n_features, "query width mismatch");
        let mut out = Vec::new();
        let radius = if sq_bound == f64::INFINITY {
            f64::INFINITY
        } else {
            self.metric.rank_of(sq_bound.max(0.0))
        };
        let query = self.metric.prepare_query(query);
        match self.metric {
            Metric::Manhattan => self.range_rec(
                self.root,
                &query,
                sq_bound,
                radius,
                bound,
                skip,
                &manhattan_dispatched,
                &|d: f64| d,
                &mut out,
            ),
            Metric::SqEuclidean | Metric::Cosine => self.range_rec(
                self.root,
                &query,
                sq_bound,
                radius,
                bound,
                skip,
                &sq_euclidean_dispatched,
                &|d: f64| d.sqrt(),
                &mut out,
            ),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetId;
    use crate::index::BruteIndex;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn random_data(n: usize, p: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let feats: Vec<f64> = (0..n * p).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        Dataset::from_parts(feats, labels, p, 3)
    }

    /// Rows and distance bits must match the brute-force scan exactly.
    fn assert_matches_brute(data: &Dataset, tree: &VpTree, k: usize, queries: usize, seed: u64) {
        let brute = BruteIndex::build(data);
        let mut rng = rng_from_seed(seed);
        for _ in 0..queries {
            let qi = rng.gen_range(0..data.n_samples());
            let skip = if rng.gen_bool(0.5) { Some(qi) } else { None };
            let query = data.row(qi);
            assert_eq!(
                tree.k_nearest_sq(query, k, skip),
                brute.k_nearest_sq(query, k, skip)
            );
        }
    }

    #[test]
    fn exact_on_low_dimensional_data() {
        let data = random_data(300, 3, 1);
        let tree = VpTree::build(&data);
        assert_eq!(tree.len(), 300);
        assert_matches_brute(&data, &tree, 5, 40, 2);
    }

    #[test]
    fn exact_on_high_dimensional_data() {
        // the regime KD-trees lose and VP-trees are built for
        let data = random_data(200, 64, 3);
        let tree = VpTree::build(&data);
        assert_matches_brute(&data, &tree, 7, 30, 4);
    }

    #[test]
    fn exact_on_catalog_surrogate() {
        let data = DatasetId::S5.generate(0.05, 5);
        let tree = VpTree::build(&data);
        assert_matches_brute(&data, &tree, 5, 40, 6);
    }

    #[test]
    fn exact_with_duplicate_points() {
        // heavy ties stress the tie-breaking rules
        let feats: Vec<f64> = (0..60).map(|i| f64::from(i % 5)).collect();
        let data = Dataset::from_parts(feats, vec![0; 60], 1, 1);
        let tree = VpTree::build(&data);
        assert_matches_brute(&data, &tree, 8, 30, 7);
    }

    #[test]
    fn single_row_tree() {
        let data = Dataset::from_parts(vec![1.0, 2.0], vec![0], 2, 1);
        let tree = VpTree::build(&data);
        let hits = tree.k_nearest_sq(&[0.0, 0.0], 3, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].row, 0);
    }

    #[test]
    #[should_panic(expected = "cannot index an empty dataset")]
    fn empty_dataset_rejected() {
        let data = Dataset::from_parts(Vec::new(), Vec::new(), 2, 1);
        let _ = VpTree::build(&data);
    }

    #[test]
    fn tombstones_excluded_and_compaction_preserves_results() {
        let data = random_data(400, 5, 11);
        let mut tree = VpTree::build(&data);
        for r in 0..300 {
            assert!(NeighborIndex::delete(&mut tree, r));
        }
        assert_eq!(tree.n_alive(), 100);
        let sub = BruteIndex::build(&data.select(&(300..400).collect::<Vec<_>>()));
        for qi in [0usize, 37, 399] {
            let got = tree.k_nearest_sq(data.row(qi), 8, None);
            let want = sub.k_nearest_sq(data.row(qi), 8, None);
            assert_eq!(
                got.iter().map(|h| h.row - 300).collect::<Vec<_>>(),
                want.iter().map(|h| h.row).collect::<Vec<_>>()
            );
        }
    }
}
