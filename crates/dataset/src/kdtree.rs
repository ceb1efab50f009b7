//! KD-tree exact nearest-neighbour index.
//!
//! The brute-force scan ([`crate::index::BruteIndex`]) is the reference
//! implementation; this median-split KD-tree gives the same exact results
//! with `O(log n)`-ish queries on low/medium-dimensional data (the regime of
//! most catalog datasets). High-dimensional data (S12, S13) degrades toward
//! a linear scan, as KD-trees do — callers choose per use case (or let
//! [`crate::index::GranulationBackend::Auto`] choose).
//!
//! The tree also implements [`NeighborIndex`]: squared-distance queries,
//! label-aware nearest-heterogeneous search, range queries, and **tombstone
//! deletion** with periodic compaction — once the number of deletions since
//! the last (re)build exceeds the number of still-alive rows, the tree is
//! rebuilt over the survivors so query cost tracks `|alive|`, not the
//! original `n`. Results are unaffected (rebuilds only change traversal
//! order, and queries are exact).
//!
//! Leaf buckets keep a **leaf-contiguous** copy of their rows'
//! coordinates — the tree's only copy: it builds from the dataset's rows
//! and rebuilds from the leaves themselves — and a leaf visit runs the
//! index module's shared scan over it — the same scan the brute backend and the VP-tree run: for rows of
//! a lane width or more a fully-admitted leaf is one batched
//! [`Metric::one_to_many`] call over a gap-free block, a filtered leaf
//! pays per-pair [`Metric::pair`] calls for admitted rows only, and
//! sub-lane rows go per-pair through the inline sequential kernel.
//! Cross-backend bit-identity is preserved in every case.
//!
//! Splitting-plane pruning is metric-aware: the gap to a splitting plane is
//! `diff²` in squared-Euclidean kernel space, `|diff|` in Manhattan, and
//! `diff²` again for cosine (chord² on the unit sphere still obeys the
//! Euclidean plane bound since normalized rows live in the same ambient
//! space). Cosine builds index a **normalized copy** of the rows (dropped
//! once the leaves hold it) and normalize each query on entry, so the
//! tree's geometry is plain Euclidean over unit vectors.

use crate::dataset::Dataset;
use crate::distance::Metric;
use crate::index::{KBest, Leaves, NeighborIndex, RangeBound, SqNeighbor, Tombstones};

/// A node of the tree (arena-allocated).
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// A bucket: the slot range `start..end` of the tree's [`Leaves`].
    Leaf((usize, usize)),
    Split {
        /// Splitting dimension.
        dim: usize,
        /// Splitting value (rows with `value <= split` go left).
        value: f64,
        left: usize,
        right: usize,
    },
}

/// An immutable KD-tree over the rows of a dataset snapshot.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// The leaf buckets' rows and packed coordinates: the tree's one copy
    /// of the points. Rebuilt, from itself, with the arena.
    leaves: Leaves,
    /// Copied labels (for heterogeneous queries).
    labels: Vec<u32>,
    n_features: usize,
    n_rows: usize,
    leaf_size: usize,
    metric: Metric,
    tombstones: Tombstones,
}

impl KdTree {
    /// Builds the index over every row of `data`. `leaf_size` controls the
    /// bucket size (16 is a good default; see
    /// [`crate::distance::calibrated_leaf_size`] for the measured choice).
    ///
    /// # Panics
    /// Panics if the dataset is empty or `leaf_size == 0`.
    #[must_use]
    pub fn build(data: &Dataset, leaf_size: usize) -> Self {
        Self::build_with(data, leaf_size, Metric::SqEuclidean)
    }

    /// Builds the index under `metric`. Cosine builds from an L2-normalized
    /// copy of the rows (queries are normalized on entry), so tree
    /// construction and pruning always run in plain Euclidean / L1
    /// geometry; the other metrics build straight from the dataset's rows.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `leaf_size == 0`.
    #[must_use]
    pub fn build_with(data: &Dataset, leaf_size: usize, metric: Metric) -> Self {
        assert!(leaf_size > 0, "leaf size must be positive");
        assert!(data.n_samples() > 0, "cannot index an empty dataset");
        let n = data.n_samples();
        let p = data.n_features();
        let prepared;
        let points = if metric.normalizes() {
            let mut copy = data.features().to_vec();
            metric.prepare_rows(&mut copy, p);
            prepared = copy;
            &prepared[..]
        } else {
            data.features()
        };
        let mut rows: Vec<u32> = (0..n as u32).collect();
        let (nodes, leaves) = Builder::new(points, |row| row, p, leaf_size).run(&mut rows);
        Self {
            nodes,
            leaves,
            labels: data.labels().to_vec(),
            n_features: p,
            n_rows: n,
            leaf_size,
            metric,
            tombstones: Tombstones::new(n),
        }
    }

    /// Rebuilds the node arena over the currently alive rows, reading
    /// their coordinates from the current leaves, in leaf order. The
    /// median selection breaks coordinate ties by row id, as the first
    /// build does, so the splits and each leaf's rows are those of a build
    /// over the survivors alone; only the order of rows inside a leaf can
    /// differ, and no answer depends on it (k-NN answers are ordered by
    /// `(distance, row)`, range answers are unordered).
    fn rebuild(&mut self) {
        let old = std::mem::take(&mut self.leaves);
        let (ids, points) = old.parts();
        let mut slots: Vec<u32> = (0u32..)
            .zip(ids)
            .filter(|&(_, &row)| self.tombstones.is_alive(row as usize))
            .map(|(slot, _)| slot)
            .collect();
        self.tombstones.rebuilt();
        (self.nodes, self.leaves) = Builder::new(
            points,
            |slot| ids[slot as usize],
            self.n_features,
            self.leaf_size,
        )
        .run(&mut slots);
    }

    /// Number of indexed rows (alive + deleted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the index is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Shared leaf/split traversal for best-k queries with a row filter.
    ///
    /// `gap` is the metric's splitting-plane bound (`Metric::plane_gap`)
    /// monomorphized by the caller: the traversal visits thousands of
    /// split nodes per query and an enum dispatch per visit costs ~25%
    /// at low widths, so the branch happens once at the public entry
    /// points and the recursion compiles to the bare `diff * diff`
    /// (or `diff.abs()`) it had before metrics were pluggable.
    fn search_filtered(
        &self,
        node: usize,
        query: &[f64],
        skip: Option<usize>,
        keep: &impl Fn(u32) -> bool,
        gap: &impl Fn(f64) -> f64,
        best: &mut KBest,
    ) {
        match &self.nodes[node] {
            Node::Leaf(slots) => {
                self.leaves.scan(
                    *slots,
                    self.metric,
                    query,
                    |r| self.tombstones.is_alive(r as usize) && Some(r as usize) != skip && keep(r),
                    |r, d| best.insert(d, r as usize),
                );
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search_filtered(near, query, skip, keep, gap, best);
                if gap(diff) <= best.worst_sq() {
                    self.search_filtered(far, query, skip, keep, gap, best);
                }
            }
        }
    }

    /// `gap` is the monomorphized `Metric::plane_gap` — see
    /// [`Self::search_filtered`] for why it is a parameter.
    #[allow(clippy::too_many_arguments)]
    fn range_rec(
        &self,
        node: usize,
        query: &[f64],
        sq_bound: f64,
        bound: RangeBound,
        skip: Option<usize>,
        gap: &impl Fn(f64) -> f64,
        out: &mut Vec<SqNeighbor>,
    ) {
        match &self.nodes[node] {
            Node::Leaf(slots) => {
                self.leaves.scan(
                    *slots,
                    self.metric,
                    query,
                    |r| self.tombstones.is_alive(r as usize) && Some(r as usize) != skip,
                    |r, d| {
                        if bound.admits(d, sq_bound) {
                            out.push(SqNeighbor {
                                row: r as usize,
                                sq_dist: d,
                            });
                        }
                    },
                );
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                // Minimum achievable squared distance to each half-space.
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.range_rec(near, query, sq_bound, bound, skip, gap, out);
                if bound.admits(gap(diff), sq_bound) {
                    self.range_rec(far, query, sq_bound, bound, skip, gap, out);
                }
            }
        }
    }
}

/// Median-split construction over items whose coordinates sit at
/// `points[item * p..]`: the rows of a dataset on the first build, the
/// slots of the previous leaves on a rebuild. `id` maps an item to its row
/// id; it is a type parameter so that the first build's identity compiles
/// away in the median selection's comparator.
struct Builder<'a, I> {
    points: &'a [f64],
    id: I,
    p: usize,
    leaf_size: usize,
    nodes: Vec<Node>,
    leaves: Leaves,
}

impl<'a, I: Fn(u32) -> u32> Builder<'a, I> {
    fn new(points: &'a [f64], id: I, p: usize, leaf_size: usize) -> Self {
        Self {
            points,
            id,
            p,
            leaf_size,
            nodes: Vec::new(),
            leaves: Leaves::default(),
        }
    }

    /// The arena and leaves of a tree over `items`.
    fn run(mut self, items: &mut [u32]) -> (Vec<Node>, Leaves) {
        self.leaves = Leaves::with_capacity(items.len(), self.p);
        if items.is_empty() {
            self.push_leaf(&[]);
        } else {
            self.node(items);
        }
        (self.nodes, self.leaves)
    }

    fn coord(&self, item: u32, dim: usize) -> f64 {
        self.points[item as usize * self.p + dim]
    }

    /// Appends a leaf node over `items`.
    fn push_leaf(&mut self, items: &[u32]) -> usize {
        let slots = self.leaves.push(items, &self.id, self.points, self.p);
        self.nodes.push(Node::Leaf(slots));
        self.nodes.len() - 1
    }

    fn node(&mut self, items: &mut [u32]) -> usize {
        if items.len() <= self.leaf_size {
            return self.push_leaf(items);
        }
        // pick the dimension with the largest spread
        let mut best_dim = 0;
        let mut best_spread = -1.0;
        for d in 0..self.p {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in items.iter() {
                let v = self.coord(r, d);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_dim = d;
            }
        }
        if best_spread <= 0.0 {
            // all points identical: cannot split
            return self.push_leaf(items);
        }
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |&a, &b| {
            self.coord(a, best_dim)
                .partial_cmp(&self.coord(b, best_dim))
                .expect("finite coords")
                .then_with(|| (self.id)(a).cmp(&(self.id)(b)))
        });
        let split_value = self.coord(items[mid], best_dim);
        // guard: ensure both sides non-empty under `<=` routing
        let n_left = items
            .iter()
            .filter(|&&r| self.coord(r, best_dim) <= split_value)
            .count();
        if n_left == items.len() {
            // split value is the max; nudge: put strictly-less on the left
            let prev = items
                .iter()
                .map(|&r| self.coord(r, best_dim))
                .filter(|&v| v < split_value)
                .fold(f64::NEG_INFINITY, f64::max);
            if prev == f64::NEG_INFINITY {
                return self.push_leaf(items);
            }
            return self.node_with(items, best_dim, prev);
        }
        self.node_with(items, best_dim, split_value)
    }

    fn node_with(&mut self, items: &[u32], dim: usize, value: f64) -> usize {
        let (mut left_items, mut right_items): (Vec<u32>, Vec<u32>) =
            items.iter().partition(|&&r| self.coord(r, dim) <= value);
        debug_assert!(!left_items.is_empty() && !right_items.is_empty());
        let idx = self.nodes.len();
        // placeholder, replaced with the Split below
        self.nodes.push(Node::Leaf((0, 0)));
        let left = self.node(&mut left_items);
        let right = self.node(&mut right_items);
        self.nodes[idx] = Node::Split {
            dim,
            value,
            left,
            right,
        };
        idx
    }
}

impl NeighborIndex for KdTree {
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
        if k == 0 || self.nodes.is_empty() {
            return Vec::new();
        }
        let query = self.metric.prepare_query(query);
        let mut best = KBest::new(k);
        // Branch on the metric once, not per node visit; each arm must
        // match `Metric::plane_gap` exactly to keep answers bit-identical.
        match self.metric {
            Metric::Manhattan => {
                self.search_filtered(0, &query, skip, &|_| true, &|d: f64| d.abs(), &mut best);
            }
            Metric::SqEuclidean | Metric::Cosine => {
                self.search_filtered(0, &query, skip, &|_| true, &|d: f64| d * d, &mut best);
            }
        }
        best.into_sorted()
    }

    fn nearest_heterogeneous_sq(
        &self,
        query: &[f64],
        label: u32,
        skip: Option<usize>,
    ) -> Option<SqNeighbor> {
        if self.nodes.is_empty() {
            return None;
        }
        let query = self.metric.prepare_query(query);
        let mut best = KBest::new(1);
        let keep = |r: u32| self.labels[r as usize] != label;
        match self.metric {
            Metric::Manhattan => {
                self.search_filtered(0, &query, skip, &keep, &|d: f64| d.abs(), &mut best);
            }
            Metric::SqEuclidean | Metric::Cosine => {
                self.search_filtered(0, &query, skip, &keep, &|d: f64| d * d, &mut best);
            }
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
        if !self.nodes.is_empty() {
            let query = self.metric.prepare_query(query);
            match self.metric {
                Metric::Manhattan => {
                    self.range_rec(
                        0,
                        &query,
                        sq_bound,
                        bound,
                        skip,
                        &|d: f64| d.abs(),
                        &mut out,
                    );
                }
                Metric::SqEuclidean | Metric::Cosine => {
                    self.range_rec(0, &query, sq_bound, bound, skip, &|d: f64| d * d, &mut out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BruteIndex;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn random_dataset(n: usize, p: usize, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let feats: Vec<f64> = (0..n * p).map(|_| rng.gen_range(-5.0..5.0)).collect();
        Dataset::from_parts(feats, vec![0; n], p, 1)
    }

    fn rows(hits: &[SqNeighbor]) -> Vec<usize> {
        hits.iter().map(|h| h.row).collect()
    }

    #[test]
    fn matches_brute_force_exactly() {
        for (n, p) in [(50usize, 2usize), (200, 3), (300, 8)] {
            let d = random_dataset(n, p, n as u64);
            let tree = KdTree::build(&d, 8);
            let brute = BruteIndex::build(&d);
            let mut rng = rng_from_seed(99);
            for _ in 0..20 {
                let q: Vec<f64> = (0..p).map(|_| rng.gen_range(-5.0..5.0)).collect();
                assert_eq!(
                    tree.k_nearest_sq(&q, 7, None),
                    brute.k_nearest_sq(&q, 7, None),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn duplicate_points_handled() {
        let d = Dataset::from_parts(vec![1.0; 40], vec![0; 40], 1, 1);
        let tree = KdTree::build(&d, 4);
        let hits = tree.k_nearest_sq(&[1.0], 5, None);
        assert!(hits.iter().all(|h| h.sq_dist == 0.0));
        // ties resolved by ascending row
        assert_eq!(rows(&hits), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_rejected() {
        let d = Dataset::from_parts(Vec::new(), Vec::new(), 2, 1);
        let _ = KdTree::build(&d, 4);
    }

    #[test]
    fn rebuild_from_the_leaves_gives_the_tree_of_the_survivors() {
        for metric in Metric::ALL {
            // Coordinates on a small grid: ties everywhere.
            let mut rng = rng_from_seed(11);
            let feats: Vec<f64> = (0..400 * 3)
                .map(|_| f64::from(rng.gen_range(0..6u32)))
                .collect();
            let d = Dataset::from_parts(feats, vec![0; 400], 3, 1);
            let mut tree = KdTree::build_with(&d, 8, metric);
            // The 201st deletion outnumbers the 199 survivors: a rebuild.
            for r in 0..201 {
                assert!(NeighborIndex::delete(&mut tree, r));
            }
            let survivors: Vec<usize> = (201..400).collect();
            let fresh = KdTree::build_with(&d.select(&survivors), 8, metric);
            assert_eq!(tree.nodes, fresh.nodes, "{metric}");
            let (ids, points) = tree.leaves.parts();
            let (fresh_ids, fresh_points) = fresh.leaves.parts();
            for node in &tree.nodes {
                let Node::Leaf((start, end)) = *node else {
                    continue;
                };
                let mut got: Vec<(u32, Vec<u64>)> = (start..end)
                    .map(|s| {
                        (
                            ids[s],
                            points[s * 3..s * 3 + 3]
                                .iter()
                                .map(|x| x.to_bits())
                                .collect(),
                        )
                    })
                    .collect();
                let mut want: Vec<(u32, Vec<u64>)> = (start..end)
                    .map(|s| {
                        let bits = fresh_points[s * 3..s * 3 + 3].iter().map(|x| x.to_bits());
                        (fresh_ids[s] + 201, bits.collect())
                    })
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{metric}");
            }
        }
    }

    #[test]
    fn tombstones_excluded_and_compaction_preserves_results() {
        let d = random_dataset(400, 3, 7);
        let mut tree = KdTree::build(&d, 8);
        // Delete 350 rows — enough to trigger at least one rebuild.
        for r in 0..350 {
            assert!(NeighborIndex::delete(&mut tree, r));
        }
        assert_eq!(tree.n_alive(), 50);
        let hits = tree.k_nearest_sq(d.row(0), 10, None);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|h| h.row >= 350));
        // Against a fresh brute scan over the survivors.
        let sub = d.select(&(350..400).collect::<Vec<_>>());
        let brute = BruteIndex::build(&sub).k_nearest_sq(d.row(0), 10, None);
        assert_eq!(
            rows(&hits),
            rows(&brute).iter().map(|r| r + 350).collect::<Vec<_>>()
        );
    }
}
