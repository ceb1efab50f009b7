//! The `NeighborIndex` abstraction: one API over the brute-force scan
//! ([`BruteIndex`]), the KD-tree ([`crate::kdtree`]) and the VP-tree
//! ([`crate::vptree`]), with **tombstone deletion** so RD-GBG can remove
//! covered rows from the undivided set without rebuilding from scratch.
//!
//! Contract shared by every backend (property-tested in `gbabs`):
//!
//! * all distances are **kernel values** of the index's
//!   [`Metric`] — squared Euclidean by default,
//!   L1 for Manhattan, squared chord (on internally L2-normalized rows)
//!   for cosine. The monotone `rank_of` map (`sqrt` / identity) is
//!   deferred until a ball radius is finalized. Field names say `sq_*`
//!   for continuity with the Euclidean-only era;
//! * k-NN results are the exact `k` nearest *alive* rows ordered by
//!   `(sq_dist, row)` ascending, ties broken toward the smaller row;
//! * range queries return every alive row within the (kernel-space) bound,
//!   in unspecified order;
//! * deleted rows never appear in any result;
//! * cosine indexes normalize build rows once and every query per call
//!   through the same scalar helper, so normalized coordinates — and hence
//!   all results — are bit-identical across backends and kernel tiers.
//!
//! Every backend computes its distances in one scan, `scan_rows`: the
//! brute sweep runs it over the packed alive rows, the trees over each
//! visited leaf's packed bucket. Because that scan is exact and every
//! backend applies the identical tie-break, the RD-GBG models built on
//! top of them are **bit-identical** across backends; the backend only
//! changes the asymptotics:
//!
//! | operation            | Brute  | KdTree (low p)  | VpTree (low intrinsic dim) |
//! |----------------------|--------|-----------------|----------------------------|
//! | build                | O(n)   | O(n log n)      | O(n log n)                 |
//! | k-NN query           | O(n)   | O(log n + k)    | O(log n + k)               |
//! | range query          | O(n)   | O(log n + out)  | O(log n + out)             |
//! | delete               | O(1)   | O(1)            | O(1)                       |
//!
//! [`self_join`] answers the k-NN lists of many alive rows at once, on any
//! backend: it reads the rows from the dataset and only their liveness
//! from the index, and walks row blocks through the blocked many-to-many
//! kernel ([`Metric::dist_block`]). A pair of requested rows is computed
//! once and offered to both rows' lists, a requested row and any other
//! alive row once, one way; a request of a few rows on the brute backend
//! is one pass over its packed alive rows. Each list equals the row's own
//! `k_nearest_sq(row, k, Some(row))` bit for bit, for any thread count: a
//! kernel value is symmetric bit for bit (`(a−b)² = (b−a)²` and
//! `|a−b| = |b−a|` exactly, summed in the same lane order), and a list
//! keeps the same entries in whatever order they arrive. The join
//! measures every pair, so it pays where a tree's queries prune little;
//! RD-GBG fetches its density hoods with it on the brute backend and
//! wherever it measured faster than per-row tree queries, and the
//! neighbour-based samplers fetch their hoods with it.
//!
//! Tree queries degrade toward O(n) as the (intrinsic) dimensionality
//! grows; [`GranulationBackend::Auto`] picks the KD-tree up to 24
//! features and the brute backend beyond.

use crate::dataset::Dataset;
use crate::distance::{
    calibrated_leaf_size, manhattan, sq_dist_block, sq_euclidean, Metric, LANE_WIDTH,
};
use crate::kdtree::KdTree;
use crate::vptree::VpTree;
use std::fmt;

/// One neighbour hit in squared-distance space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqNeighbor {
    /// Row index into the indexed dataset.
    pub row: usize,
    /// Squared Euclidean distance to the query.
    pub sq_dist: f64,
}

/// Whether a range query's bound is `< bound` or `<= bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeBound {
    /// Strictly inside: `sq_dist < bound`.
    Strict,
    /// Inclusive: `sq_dist <= bound`.
    Inclusive,
}

impl RangeBound {
    /// Applies the bound test.
    #[inline]
    #[must_use]
    pub fn admits(self, sq_dist: f64, sq_bound: f64) -> bool {
        match self {
            RangeBound::Strict => sq_dist < sq_bound,
            RangeBound::Inclusive => sq_dist <= sq_bound,
        }
    }
}

/// Bounded best-`k` accumulator over `(sq_dist, row)` with the workspace's
/// canonical tie-break (smaller row wins at equal distance). A binary
/// max-heap, so inserts are `O(log k)` — this replaces both the `O(k·n)`
/// insertion buffer the old RD-GBG scan used and the linear worst-entry
/// scans in the tree queries.
#[derive(Debug, Clone)]
pub struct KBest {
    k: usize,
    /// Max-heap in `(sq_dist, row)` order.
    heap: Vec<SqNeighbor>,
}

/// Whether `a` sorts after `b` in `(sq_dist, row)` order.
#[inline]
fn after(a: &SqNeighbor, b: &SqNeighbor) -> bool {
    a.sq_dist > b.sq_dist || (a.sq_dist == b.sq_dist && a.row > b.row)
}

/// Restores the max-heap order of `heap` below slot `i`.
#[inline]
fn sift_down(heap: &mut [SqNeighbor], mut i: usize) {
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < heap.len() && after(&heap[l], &heap[largest]) {
            largest = l;
        }
        if r < heap.len() && after(&heap[r], &heap[largest]) {
            largest = r;
        }
        if largest == i {
            break;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

/// Sorts hits ascending by `(sq_dist, row)`.
fn sort_hits(hits: &mut [SqNeighbor]) {
    hits.sort_unstable_by(|a, b| {
        a.sq_dist
            .partial_cmp(&b.sq_dist)
            .expect("finite distances")
            .then_with(|| a.row.cmp(&b.row))
    });
}

impl KBest {
    /// New accumulator keeping the best `k` entries.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(1024)),
        }
    }

    /// Squared distance of the current worst kept entry, or `+inf` while
    /// fewer than `k` entries are held. Exact pruning threshold for tree
    /// traversals.
    #[inline]
    #[must_use]
    pub fn worst_sq(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap[0].sq_dist
        }
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers an entry; keeps it only if it beats the current worst.
    #[inline]
    pub fn insert(&mut self, sq_dist: f64, row: usize) {
        if self.k == 0 {
            return;
        }
        let hit = SqNeighbor { row, sq_dist };
        if self.heap.len() < self.k {
            self.heap.push(hit);
            self.sift_up(self.heap.len() - 1);
        } else if after(&self.heap[0], &hit) {
            self.heap[0] = hit;
            sift_down(&mut self.heap, 0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if after(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Merges another accumulator into this one (used by chunked parallel
    /// brute scans; the result is independent of chunking).
    pub fn merge(&mut self, other: &KBest) {
        for hit in &other.heap {
            self.insert(hit.sq_dist, hit.row);
        }
    }

    /// Extracts the kept entries sorted ascending by `(sq_dist, row)`.
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<SqNeighbor> {
        sort_hits(&mut self.heap);
        self.heap
    }
}

/// Lazily yields alive rows in ascending `(sq_dist, row)` order from a
/// pivot — the default [`NeighborIndex::distance_ordered`] implementation.
///
/// Works by geometric re-querying: fetch the `k` nearest, emit them, then
/// re-query with `2k` once exhausted. Because every backend's
/// `k_nearest_sq` is exact under the shared tie-break, each larger result
/// extends the previous one, so the emitted sequence is exactly the fully
/// sorted alive set — but a consumer that stops after a short prefix (the
/// GBG++ hard-attention peel) pays `O(prefix · query)` instead of a full
/// `O(n log n)` sort. The index must not be mutated during iteration
/// (enforced by the borrow).
struct DistanceOrdered<'a, I: NeighborIndex + ?Sized> {
    index: &'a I,
    query: &'a [f64],
    batch: Vec<SqNeighbor>,
    /// Entries of `batch` already handed out.
    emitted: usize,
    /// `k` of the last `k_nearest_sq` call (0 = none yet).
    k: usize,
    /// Set once a query returned fewer than `k` hits — the alive set is
    /// exhausted and no larger re-query can add entries.
    done: bool,
}

impl<'a, I: NeighborIndex + ?Sized> DistanceOrdered<'a, I> {
    const INITIAL_K: usize = 32;

    fn new(index: &'a I, query: &'a [f64]) -> Self {
        Self {
            index,
            query,
            batch: Vec::new(),
            emitted: 0,
            k: 0,
            done: false,
        }
    }
}

impl<I: NeighborIndex + ?Sized> Iterator for DistanceOrdered<'_, I> {
    type Item = SqNeighbor;

    fn next(&mut self) -> Option<SqNeighbor> {
        if self.emitted == self.batch.len() {
            if self.done {
                return None;
            }
            self.k = if self.k == 0 {
                Self::INITIAL_K
            } else {
                self.k * 2
            };
            self.batch = self.index.k_nearest_sq(self.query, self.k, None);
            self.done = self.batch.len() < self.k;
            if self.emitted == self.batch.len() {
                return None;
            }
        }
        let hit = self.batch[self.emitted];
        self.emitted += 1;
        Some(hit)
    }
}

/// Rows per blocked-kernel call in [`assign_to_nearest`].
const ASSIGN_BLOCK: usize = 128;

/// Bulk assign-to-nearest-centroid — the Lloyd-step query shape of the
/// k-division / 2-means granulation lineage, routed through the blocked
/// many-to-many kernel with the **centroids as the query tile**. For every
/// row of the row-major `points` block (each `n_features` wide), writes the
/// index of its nearest centroid (squared Euclidean) in the row-major
/// `centroids` block into `out`; ties break toward the **smaller centroid
/// index**, so callers that gather centroids in ascending row order
/// inherit the workspace's smaller-row tie-break.
///
/// Determinism: distances come from [`sq_dist_block`], which is
/// bit-identical to the per-pair kernels per the width-keyed contract (and
/// `(a-b)²` is bitwise symmetric), and the argmin still walks centroids in
/// ascending index with strict `<` — so routing through the register tile
/// cannot change an assignment.
///
/// # Panics
/// Panics unless `points.len()` and `centroids.len()` are multiples of
/// `n_features` (`n_features > 0`) and `out` holds one slot per point row.
pub fn assign_to_nearest(points: &[f64], centroids: &[f64], n_features: usize, out: &mut [u32]) {
    assert!(n_features > 0, "assign_to_nearest needs n_features > 0");
    assert_eq!(
        points.len(),
        n_features * out.len(),
        "points must be exactly out.len() rows of n_features"
    );
    assert_eq!(
        centroids.len() % n_features,
        0,
        "ragged centroid block (len {} vs {n_features} features)",
        centroids.len()
    );
    let n_centroids = centroids.len() / n_features;
    assert!(n_centroids > 0, "assign_to_nearest needs >= 1 centroid");
    assert!(
        n_centroids <= u32::MAX as usize,
        "centroid index must fit u32"
    );
    // Centroid-major scratch: dists[ci * rows + r], exactly the blocked
    // kernel's output layout with centroids as queries.
    let mut dists = vec![0.0f64; n_centroids * ASSIGN_BLOCK];
    let mut best = [f64::INFINITY; ASSIGN_BLOCK];
    let mut lo = 0usize;
    while lo < out.len() {
        let hi = (lo + ASSIGN_BLOCK).min(out.len());
        let rows = hi - lo;
        let block = &points[lo * n_features..hi * n_features];
        best[..rows].fill(f64::INFINITY);
        // Parity with the per-pair loops: centroid 0 wins when no distance
        // compares below +inf (all-NaN rows included).
        out[lo..hi].fill(0);
        sq_dist_block(
            centroids,
            block,
            n_features,
            &mut dists[..n_centroids * rows],
        );
        for ci in 0..n_centroids {
            let crow = &dists[ci * rows..(ci + 1) * rows];
            for (r, &d) in crow.iter().enumerate() {
                // Strict `<` keeps the earliest centroid on ties, exactly
                // like the per-pair loops this replaces.
                if d < best[r] {
                    best[r] = d;
                    out[lo + r] = ci as u32;
                }
            }
        }
        lo = hi;
    }
}

/// A nearest-neighbour index over the rows of a dataset snapshot, with
/// tombstone deletion. See the module docs for the exactness contract.
pub trait NeighborIndex: Send + Sync {
    /// The metric this index computes kernel values in. Backends built via
    /// [`GranulationBackend::build_with`] report the metric they were given.
    fn metric(&self) -> Metric {
        Metric::SqEuclidean
    }

    /// Rows the index was built over (alive + deleted).
    fn n_rows(&self) -> usize;

    /// Rows still alive.
    fn n_alive(&self) -> usize;

    /// Whether `row` is alive.
    fn is_alive(&self, row: usize) -> bool;

    /// Tombstones `row`. Returns `false` when it was already deleted.
    fn delete(&mut self, row: usize) -> bool;

    /// Exact `k` nearest alive rows to `query` (excluding `skip`), sorted
    /// ascending by `(sq_dist, row)`.
    fn k_nearest_sq(&self, query: &[f64], k: usize, skip: Option<usize>) -> Vec<SqNeighbor>;

    /// The single nearest alive row, or `None` when nothing (else) is alive.
    fn nearest_sq(&self, query: &[f64], skip: Option<usize>) -> Option<SqNeighbor> {
        self.k_nearest_sq(query, 1, skip).first().copied()
    }

    /// Nearest alive row whose label differs from `label`, or `None`.
    fn nearest_heterogeneous_sq(
        &self,
        query: &[f64],
        label: u32,
        skip: Option<usize>,
    ) -> Option<SqNeighbor>;

    /// Every alive row within `sq_bound` of `query` under `bound`
    /// semantics, excluding `skip`. Order unspecified.
    fn range_sq(
        &self,
        query: &[f64],
        sq_bound: f64,
        bound: RangeBound,
        skip: Option<usize>,
    ) -> Vec<SqNeighbor>;

    /// The alive rows' ids and their metric-prepared coordinates, packed
    /// row-major in the same order, when the index keeps them so (the
    /// brute backend): [`self_join`] then answers a small request with one
    /// pass over them. `None` by default.
    fn packed_alive(&self) -> Option<(&[u32], &[f64])> {
        None
    }

    /// Distance-ordered iteration from a pivot: lazily yields every alive
    /// row in ascending `(sq_dist, row)` order — the "attention" query of
    /// the GBG++ hard-attention peel, which consumes only the homogeneous
    /// prefix. The default implementation re-queries
    /// [`NeighborIndex::k_nearest_sq`] with geometrically growing `k`, so a
    /// consumer
    /// that stops after `m` rows pays `O(m)` queries of exact results
    /// rather than a full sort. Every backend currently uses this default
    /// (a sort-the-alive-set brute override measured slower on the GBG++
    /// peel — short prefixes dominate); the hook exists so a backend with
    /// a genuinely cheaper total order can take it.
    ///
    /// The borrow prevents mutation while the iterator lives; drop it
    /// before tombstoning the consumed rows.
    fn distance_ordered<'a>(
        &'a self,
        query: &'a [f64],
    ) -> Box<dyn Iterator<Item = SqNeighbor> + 'a> {
        Box::new(DistanceOrdered::new(self, query))
    }
}

/// Shared tombstone state for the tree indexes: the alive bitmap plus the
/// compaction policy (rebuild once deletions since the last build outnumber
/// the survivors, so query cost tracks `|alive|`, amortized O(log n) per
/// delete). Owning the policy here keeps KD-tree and VP-tree behaviour in
/// lock-step.
#[derive(Debug, Clone)]
pub(crate) struct Tombstones {
    alive: Vec<bool>,
    n_alive: usize,
    deleted_since_build: usize,
}

impl Tombstones {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            alive: vec![true; n],
            n_alive: n,
            deleted_since_build: 0,
        }
    }

    #[inline]
    pub(crate) fn is_alive(&self, row: usize) -> bool {
        self.alive[row]
    }

    pub(crate) fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Tombstones `row`. `None` when it was already deleted; otherwise
    /// whether the owner should rebuild its node arena now.
    pub(crate) fn delete(&mut self, row: usize) -> Option<bool> {
        if !self.alive[row] {
            return None;
        }
        self.alive[row] = false;
        self.n_alive -= 1;
        self.deleted_since_build += 1;
        Some(self.n_alive >= 64 && self.deleted_since_build > self.n_alive)
    }

    /// Marks a rebuild done.
    pub(crate) fn rebuilt(&mut self) {
        self.deleted_since_build = 0;
    }

    /// Marks a rebuild done and returns the surviving rows in ascending
    /// order.
    pub(crate) fn begin_rebuild(&mut self) -> Vec<u32> {
        self.rebuilt();
        (0..self.alive.len() as u32)
            .filter(|&r| self.alive[r as usize])
            .collect()
    }
}

/// Rows per batched-kernel call in the brute sweep.
const SCAN_BLOCK: usize = 128;

/// Rows per batched-kernel call in a tree leaf scan: half the wide-row leaf
/// size of [`calibrated_leaf_size`]. One tombstoned or filtered-out row
/// sends its whole block to per-pair calls, and as RD-GBG deletes rows the
/// 16-row halves stay batched more often: RD-GBG on the S8 serve set
/// (p = 16, KD-tree) ran faster with 16-row blocks than with whole 32-row
/// leaves. Small on purpose too: the scan's buffers are zeroed on every
/// leaf visit.
const LEAF_BLOCK: usize = 16;

/// Which rows of a [`scan_rows`] sweep reach its `hit` callback.
#[derive(Clone, Copy)]
pub(crate) enum ScanFilter<K> {
    /// Every slot but one (`usize::MAX` = none). Wide blocks stay fully
    /// batched: the one slot's distance is computed and dropped.
    SkipSlot(usize),
    /// The rows whose id `K` admits. A fully admitted block of wide rows is
    /// batched; in a filtered block only the kept rows pay a per-pair
    /// kernel call, so rejected distances are never computed.
    Keep(K),
}

/// The filter type of a skip-only scan (no predicate).
type NoKeep = fn(u32) -> bool;

/// The one neighbour scan under every backend. `points` packs `ids.len()`
/// metric-prepared rows of `query.len()` features, slot `s` holding row
/// `ids[s]`; `hit(ids[s], value)` receives the kernel value of every slot
/// `filter` admits, in slot order.
///
/// Sub-lane rows (`p < LANE_WIDTH`) have no vector work to batch: they take
/// one fused loop of the inline per-pair kernel, with the metric branch
/// hoisted out of it. Wider rows go in blocks of `BLOCK`: a fully admitted
/// block is one [`Metric::one_to_many`] call over its contiguous slab, a
/// filtered block pays [`Metric::pair`] for its kept rows only. Every path
/// computes a row's value with the same width-keyed lane tree (kernel
/// contract v2), so the value is bit-identical whichever path the row
/// takes — and across the backends, whose blocks differ.
pub(crate) fn scan_rows<const BLOCK: usize, K: Fn(u32) -> bool>(
    metric: Metric,
    query: &[f64],
    points: &[f64],
    ids: &[u32],
    filter: ScanFilter<K>,
    mut hit: impl FnMut(u32, f64),
) {
    let p = query.len();
    debug_assert_eq!(points.len(), ids.len() * p, "one packed row per id");
    if p < LANE_WIDTH {
        // Cosine shares the squared-Euclidean loop: its rows and query
        // come normalized.
        if metric == Metric::Manhattan {
            scan_pairs(manhattan, query, points, ids, filter, hit);
        } else {
            scan_pairs(sq_euclidean, query, points, ids, filter, hit);
        }
        return;
    }
    let mut dists = [0.0f64; BLOCK];
    for (b, block) in ids.chunks(BLOCK).enumerate() {
        let lo = b * BLOCK;
        let rows = &points[lo * p..(lo + block.len()) * p];
        let dists = &mut dists[..block.len()];
        match &filter {
            ScanFilter::SkipSlot(skip) => {
                metric.one_to_many(query, rows, dists);
                for (s, (&id, &d)) in block.iter().zip(dists.iter()).enumerate() {
                    if lo + s != *skip {
                        hit(id, d);
                    }
                }
            }
            ScanFilter::Keep(keep) => {
                let mut admitted = [false; BLOCK];
                let mut kept = 0usize;
                for (a, &id) in admitted.iter_mut().zip(block) {
                    *a = keep(id);
                    kept += usize::from(*a);
                }
                if kept == block.len() {
                    metric.one_to_many(query, rows, dists);
                    for (&id, &d) in block.iter().zip(dists.iter()) {
                        hit(id, d);
                    }
                } else if kept > 0 {
                    for ((&id, &a), row) in block.iter().zip(&admitted).zip(rows.chunks_exact(p)) {
                        if a {
                            hit(id, metric.pair(query, row));
                        }
                    }
                }
            }
        }
    }
}

/// [`scan_rows`]'s sub-lane loop for one inline kernel, the filter's
/// branch hoisted out of it too.
#[inline(always)]
fn scan_pairs<K: Fn(u32) -> bool>(
    kernel: impl Fn(&[f64], &[f64]) -> f64,
    query: &[f64],
    points: &[f64],
    ids: &[u32],
    filter: ScanFilter<K>,
    mut hit: impl FnMut(u32, f64),
) {
    let p = query.len();
    let slots = ids.iter().enumerate();
    match filter {
        ScanFilter::SkipSlot(skip) => {
            for (s, &id) in slots.filter(|&(s, _)| s != skip) {
                hit(id, kernel(query, &points[s * p..(s + 1) * p]));
            }
        }
        ScanFilter::Keep(keep) => {
            for (s, &id) in slots.filter(|&(_, &id)| keep(id)) {
                hit(id, kernel(query, &points[s * p..(s + 1) * p]));
            }
        }
    }
}

/// The leaf buckets of a tree index: every leaf's row ids and a copy of
/// their coordinates, packed leaf after leaf, so a leaf visit is one
/// [`scan_rows`] over a gap-free slab. Rebuilt with the tree's arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct Leaves {
    ids: Vec<u32>,
    points: Vec<f64>,
}

impl Leaves {
    pub(crate) fn with_capacity(rows: usize, p: usize) -> Self {
        Self {
            ids: Vec::with_capacity(rows),
            points: Vec::with_capacity(rows * p),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.points.clear();
    }

    /// Appends a leaf over `items`, copying their coordinates out of the
    /// row-major `points` (`p` wide, one row per item); `id` maps an item
    /// to its row id. Returns the leaf's slot range.
    pub(crate) fn push(
        &mut self,
        items: &[u32],
        id: impl Fn(u32) -> u32,
        points: &[f64],
        p: usize,
    ) -> (usize, usize) {
        let start = self.ids.len();
        self.ids.extend(items.iter().map(|&i| id(i)));
        for &i in items {
            let base = i as usize * p;
            self.points.extend_from_slice(&points[base..base + p]);
        }
        (start, self.ids.len())
    }

    /// The row ids and coordinates of every slot, in slot order.
    pub(crate) fn parts(&self) -> (&[u32], &[f64]) {
        (&self.ids, &self.points)
    }

    /// Scans the leaf at slots `start..end` for `query`, passing every row
    /// `keep` admits to `hit` with its kernel value.
    pub(crate) fn scan(
        &self,
        (start, end): (usize, usize),
        metric: Metric,
        query: &[f64],
        keep: impl Fn(u32) -> bool,
        hit: impl FnMut(u32, f64),
    ) {
        let p = query.len();
        scan_rows::<LEAF_BLOCK, _>(
            metric,
            query,
            &self.points[start * p..end * p],
            &self.ids[start..end],
            ScanFilter::Keep(keep),
            hit,
        );
    }
}

/// Brute-force [`NeighborIndex`]: alive rows kept **densely packed** in a
/// contiguous row-major buffer, scanned in blocks through the batched
/// [`Metric::one_to_many`] kernel. `delete` is O(p) via a block
/// swap-remove; scans touch only alive rows no matter how many tombstones
/// have accumulated, so late RD-GBG iterations stay cheap — and because
/// the buffer compacts itself on every delete, the SIMD kernel always
/// streams a gap-free slab.
#[derive(Debug, Clone)]
pub struct BruteIndex {
    labels: Vec<u32>,
    n_features: usize,
    metric: Metric,
    /// Dense list of alive rows (unordered); `alive_points` is parallel to
    /// it, one `n_features`-wide block per entry.
    alive_rows: Vec<u32>,
    /// Row-major coordinates of the alive rows (metric-prepared: cosine
    /// normalizes them at build), in `alive_rows` order.
    alive_points: Vec<f64>,
    /// `position[row]` = index into `alive_rows`, or `u32::MAX` if deleted.
    position: Vec<u32>,
}

const GONE: u32 = u32::MAX;

impl BruteIndex {
    /// Builds the index over every row of `data` (squared Euclidean).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    #[must_use]
    pub fn build(data: &Dataset) -> Self {
        Self::build_with(data, Metric::SqEuclidean)
    }

    /// Builds the index over every row of `data` under `metric` (cosine
    /// normalizes the packed coordinate buffer once, here).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    #[must_use]
    pub fn build_with(data: &Dataset, metric: Metric) -> Self {
        assert!(data.n_samples() > 0, "cannot index an empty dataset");
        let n = data.n_samples();
        let mut alive_points = data.features().to_vec();
        metric.prepare_rows(&mut alive_points, data.n_features());
        Self {
            labels: data.labels().to_vec(),
            n_features: data.n_features(),
            metric,
            alive_rows: (0..n as u32).collect(),
            alive_points,
            position: (0..n as u32).collect(),
        }
    }
}

impl NeighborIndex for BruteIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn n_rows(&self) -> usize {
        self.position.len()
    }

    fn n_alive(&self) -> usize {
        self.alive_rows.len()
    }

    fn is_alive(&self, row: usize) -> bool {
        self.position[row] != GONE
    }

    fn delete(&mut self, row: usize) -> bool {
        let pos = self.position[row];
        if pos == GONE {
            return false;
        }
        let pos = pos as usize;
        let last = self.alive_rows.len() - 1;
        self.alive_rows.swap_remove(pos);
        // Mirror the swap-remove on the packed coordinate buffer.
        let p = self.n_features;
        if pos != last {
            self.alive_points
                .copy_within(last * p..(last + 1) * p, pos * p);
        }
        self.alive_points.truncate(last * p);
        if let Some(&moved) = self.alive_rows.get(pos) {
            self.position[moved as usize] = pos as u32;
        }
        self.position[row] = GONE;
        true
    }

    fn packed_alive(&self) -> Option<(&[u32], &[f64])> {
        Some((&self.alive_rows, &self.alive_points))
    }

    fn k_nearest_sq(&self, query: &[f64], k: usize, skip: Option<usize>) -> Vec<SqNeighbor> {
        assert_eq!(query.len(), self.n_features, "query width mismatch");
        if k == 0 {
            return Vec::new();
        }
        let query = self.metric.prepare_query(query);
        self.scan_best(&query, k, self.skip_filter(skip))
            .into_sorted()
    }

    fn nearest_heterogeneous_sq(
        &self,
        query: &[f64],
        label: u32,
        skip: Option<usize>,
    ) -> Option<SqNeighbor> {
        let query = self.metric.prepare_query(query);
        let keep = move |row: u32| Some(row as usize) != skip && self.labels[row as usize] != label;
        self.scan_best(&query, 1, ScanFilter::Keep(keep))
            .into_sorted()
            .first()
            .copied()
    }

    fn range_sq(
        &self,
        query: &[f64],
        sq_bound: f64,
        bound: RangeBound,
        skip: Option<usize>,
    ) -> Vec<SqNeighbor> {
        let query = self.metric.prepare_query(query);
        let query = &*query;
        let filter = self.skip_filter(skip);
        let mut parts = self.scan_parts(|slot_lo, slot_hi| {
            let mut out = Vec::new();
            self.scan_slots(slot_lo, slot_hi, query, filter, |row, d| {
                if bound.admits(d, sq_bound) {
                    out.push(SqNeighbor {
                        row: row as usize,
                        sq_dist: d,
                    });
                }
            });
            out
        });
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        parts.concat()
    }
}

impl BruteIndex {
    /// Number of parallel chunks for a single-query scan of the current
    /// size (1 = serial). Such scans only go multi-threaded once they are
    /// long enough to amortize thread hand-off.
    fn scan_chunks(&self) -> usize {
        const PAR_THRESHOLD: usize = 16_384;
        let n = self.alive_rows.len();
        if n < PAR_THRESHOLD {
            1
        } else {
            rayon::current_num_threads()
                .min(n / (PAR_THRESHOLD / 2))
                .max(1)
        }
    }

    /// Runs `scan` over the alive slots in [`Self::scan_chunks`]
    /// contiguous ranges, in parallel when there is more than one, and
    /// returns each range's result in slot order.
    fn scan_parts<T: Send>(&self, scan: impl Fn(usize, usize) -> T + Sync) -> Vec<T> {
        let n = self.alive_rows.len();
        let chunks = self.scan_chunks();
        if chunks <= 1 {
            return vec![scan(0, n)];
        }
        use rayon::prelude::*;
        let chunk_len = n.div_ceil(chunks);
        (0..chunks)
            .into_par_iter()
            .map(|c| scan(c * chunk_len, ((c + 1) * chunk_len).min(n)))
            .collect()
    }

    /// The current slot of a skipped row, `usize::MAX` for none (no skip,
    /// or a row already deleted).
    fn skip_slot(&self, skip: Option<usize>) -> usize {
        match skip {
            Some(row) if self.position[row] != GONE => self.position[row] as usize,
            _ => usize::MAX,
        }
    }

    /// The filter for a skip-only query: resolves the skipped row to its
    /// current slot so the sweep stays fully batched.
    fn skip_filter(&self, skip: Option<usize>) -> ScanFilter<NoKeep> {
        ScanFilter::SkipSlot(self.skip_slot(skip))
    }

    /// [`scan_rows`] over the alive slots `slot_lo..slot_hi`.
    fn scan_slots<K: Fn(u32) -> bool>(
        &self,
        slot_lo: usize,
        slot_hi: usize,
        query: &[f64],
        filter: ScanFilter<K>,
        hit: impl FnMut(u32, f64),
    ) {
        let p = self.n_features;
        let filter = match filter {
            ScanFilter::SkipSlot(skip) => {
                ScanFilter::SkipSlot(skip.checked_sub(slot_lo).unwrap_or(usize::MAX))
            }
            keep => keep,
        };
        scan_rows::<SCAN_BLOCK, _>(
            self.metric,
            query,
            &self.alive_points[slot_lo * p..slot_hi * p],
            &self.alive_rows[slot_lo..slot_hi],
            filter,
            hit,
        );
    }

    /// Best-`k` scan over the packed alive buffer, chunked across threads
    /// when large. The merge applies the same `(sq_dist, row)` total order
    /// as a serial scan, so the result is independent of chunking and
    /// thread count.
    fn scan_best<K: Fn(u32) -> bool + Copy + Sync>(
        &self,
        query: &[f64],
        k: usize,
        filter: ScanFilter<K>,
    ) -> KBest {
        let mut parts = self
            .scan_parts(|slot_lo, slot_hi| {
                let mut best = KBest::new(k);
                self.scan_slots(slot_lo, slot_hi, query, filter, |row, d| {
                    best.insert(d, row as usize);
                });
                best
            })
            .into_iter();
        let mut merged = parts.next().expect("at least one part");
        for part in parts {
            merged.merge(&part);
        }
        merged
    }
}

/// Rows per block of a [`self_join`]: the unit the thread pool schedules,
/// and each side of a block pair.
const JOIN_BLOCK: usize = 256;

/// Rows per kernel call in a [`self_join`]: one [`Metric::dist_block`]
/// call measures a whole block against this many rows, which stay in L1
/// cache while the block streams past them. Also the largest request
/// [`self_join`] answers with one pass over an index's packed alive rows.
const JOIN_STRIP: usize = 32;

/// A list slot no hit filled yet: it sorts after every hit.
const UNSET: SqNeighbor = SqNeighbor {
    row: usize::MAX,
    sq_dist: f64::INFINITY,
};

/// The lists of a [`self_join`], one per requested row in request order,
/// each ascending by `(sq_dist, row)`, in one flat table.
#[derive(Debug, Clone)]
pub struct HoodLists {
    lists: usize,
    /// Hits per list: `k`, or every other alive row when fewer are left.
    width: usize,
    hits: Vec<SqNeighbor>,
}

impl HoodLists {
    /// `lists` lists of `width` unset slots.
    fn unset(lists: usize, width: usize) -> Self {
        Self {
            lists,
            width,
            hits: vec![UNSET; lists * width],
        }
    }

    /// Number of lists: one per requested row.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lists
    }

    /// True when no row was requested.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lists == 0
    }

    /// The list of the `i`-th requested row.
    #[must_use]
    pub fn get(&self, i: usize) -> &[SqNeighbor] {
        &self.hits[i * self.width..(i + 1) * self.width]
    }

    /// Every list, in request order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[SqNeighbor]> + '_ {
        (0..self.lists).map(|i| self.get(i))
    }
}

/// The `k` nearest alive rows of each of `rows` (each row skipped in its
/// own list), in `rows` order: list `i` equals
/// `index.k_nearest_sq(data.row(rows[i]), k, Some(rows[i]))` bit for bit,
/// on any backend and for any thread count. `index` must be built over
/// `data`; the join reads the rows from `data` (prepared for the index's
/// metric) and only their liveness from `index`.
///
/// `rows` go in blocks of 256 rows. A thread takes one block at a
/// time and offers its lists every pair inside the block and every alive
/// row outside `rows`; then every pair of blocks runs once, in rounds in
/// which no block appears twice, each pair's distances offered to both
/// blocks' lists. No two threads ever hold one list, so the table is
/// filled without locks, and it is the only memory that grows with
/// `rows`: one `k`-slot max-heap per requested row.
///
/// A request of at most 32 rows (RD-GBG's candidates, one per
/// class) over an index that packs its alive rows
/// ([`NeighborIndex::packed_alive`], the brute backend) is one pass over
/// that buffer instead: for so few rows, measuring the pairs of requested
/// rows from both ends costs less than listing and gathering the other
/// alive rows.
///
/// # Panics
/// When `index` is not over `data`'s rows, or a requested row is deleted
/// or requested twice.
#[must_use]
pub fn self_join(index: &dyn NeighborIndex, data: &Dataset, rows: &[usize], k: usize) -> HoodLists {
    match index.packed_alive() {
        Some(packed) if rows.len() <= JOIN_STRIP => sweep_packed(index, data, rows, k, packed),
        _ => self_join_in(index, data, rows, k, rows.len().div_ceil(JOIN_BLOCK)),
    }
}

/// [`self_join`] with `rows` cut into `blocks` blocks (at least one, at
/// most one per row), never taking the packed pass: the lists are the
/// same for any cut, which tests force to cover every schedule on any
/// number of CPUs.
///
/// # Panics
/// As [`self_join`].
#[must_use]
pub fn self_join_in(
    index: &dyn NeighborIndex,
    data: &Dataset,
    rows: &[usize],
    k: usize,
    blocks: usize,
) -> HoodLists {
    let n = index.n_rows();
    assert_eq!(n, data.n_samples(), "the index must be built over `data`");
    let mut requested = vec![false; n];
    for &row in rows {
        assert!(
            index.is_alive(row) && !requested[row],
            "requested rows must be alive and distinct (row {row})"
        );
        requested[row] = true;
    }
    // A list holds every other alive row at most.
    let mut lists = HoodLists::unset(rows.len(), k.min(index.n_alive().saturating_sub(1)));
    if lists.width > 0 && !rows.is_empty() {
        let others: Vec<usize> = (0..n)
            .filter(|&row| !requested[row] && index.is_alive(row))
            .collect();
        let join = Join {
            data,
            metric: index.metric(),
            width: lists.width,
            others: &others,
        };
        join.run(rows, &mut lists.hits, blocks.clamp(1, rows.len()));
    }
    lists
}

/// [`self_join`]'s pass over the packed alive rows (`ids`, and their
/// metric-prepared coordinates `points`): every requested row is
/// measured against every alive row in [`JOIN_BLOCK`]-row slabs and
/// offered all but itself.
fn sweep_packed(
    index: &dyn NeighborIndex,
    data: &Dataset,
    rows: &[usize],
    k: usize,
    (ids, points): (&[u32], &[f64]),
) -> HoodLists {
    assert_eq!(
        index.n_rows(),
        data.n_samples(),
        "the index must be built over `data`"
    );
    for (i, &row) in rows.iter().enumerate() {
        assert!(
            index.is_alive(row) && !rows[..i].contains(&row),
            "requested rows must be alive and distinct (row {row})"
        );
    }
    let mut lists = HoodLists::unset(rows.len(), k.min(ids.len().saturating_sub(1)));
    let w = lists.width;
    if w == 0 || rows.is_empty() {
        return lists;
    }
    let (p, metric) = (data.n_features(), index.metric());
    let mut q = Vec::with_capacity(rows.len() * p);
    gather(data, metric, rows, &mut q);
    let mut dists = vec![0.0; rows.len() * JOIN_BLOCK];
    let mut slab_rows = Vec::with_capacity(JOIN_BLOCK);
    for (slab_ids, slab) in ids.chunks(JOIN_BLOCK).zip(points.chunks(JOIN_BLOCK * p)) {
        let dists = &mut dists[..rows.len() * slab_ids.len()];
        metric.dist_block(&q, slab, p, dists);
        slab_rows.clear();
        slab_rows.extend(slab_ids.iter().map(|&id| id as usize));
        for ((list, row_dists), &row) in lists
            .hits
            .chunks_exact_mut(w)
            .zip(dists.chunks_exact(slab_ids.len()))
            .zip(rows)
        {
            offer_each(list, row_dists, &slab_rows, row);
        }
    }
    for list in lists.hits.chunks_exact_mut(w) {
        sort_hits(list);
    }
    lists
}

/// Requested rows and their lists, `width` slots per row.
struct Block<'a> {
    rows: &'a [usize],
    lists: &'a mut [SqNeighbor],
}

/// What every step of one [`self_join_in`] reads.
struct Join<'a> {
    data: &'a Dataset,
    metric: Metric,
    width: usize,
    /// The alive rows not requested, ascending.
    others: &'a [usize],
}

impl Join<'_> {
    /// Fills `hits` with the lists of `rows`, cut into `blocks` blocks.
    fn run(&self, rows: &[usize], hits: &mut [SqNeighbor], blocks: usize) {
        use rayon::prelude::*;
        let mut cut = Vec::with_capacity(blocks);
        let mut rest = hits;
        for b in 0..blocks {
            let rows = &rows[rows.len() * b / blocks..rows.len() * (b + 1) / blocks];
            let (lists, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * self.width);
            cut.push(Block { rows, lists });
            rest = tail;
        }
        cut.par_iter_mut().for_each(|block| self.within(block));
        // The circle method: with an even number of seats (one empty when
        // `blocks` is odd), seat `seats − 1` stays while the others turn,
        // so every pair of seats meets in exactly one round and no seat
        // sits twice in a round.
        let seats = blocks + blocks % 2;
        let mut held: Vec<Option<Block>> = cut.into_iter().map(Some).collect();
        for round in 0..seats - 1 {
            let turn = seats - 1;
            let mut pairs: Vec<(usize, usize, Block, Block)> = std::iter::once((round, turn))
                .chain((1..seats / 2).map(|s| ((round + s) % turn, (round + turn - s) % turn)))
                .filter(|&(a, b)| a < blocks && b < blocks)
                .map(|(a, b)| {
                    let block_a = held[a].take().expect("seated once");
                    (a, b, block_a, held[b].take().expect("seated once"))
                })
                .collect();
            pairs
                .par_iter_mut()
                .for_each(|(_, _, a, b)| self.across(a, b));
            for (a, b, block_a, block_b) in pairs {
                held[a] = Some(block_a);
                held[b] = Some(block_b);
            }
        }
        let width = self.width;
        held.par_iter_mut().for_each(|block| {
            let block = block.as_mut().expect("every block back");
            for list in block.lists.chunks_exact_mut(width) {
                sort_hits(list);
            }
        });
    }

    /// Offers `block`'s lists every pair inside the block, computed once
    /// for both rows, and every alive row that was not requested.
    fn within(&self, block: &mut Block) {
        let (p, w) = (self.data.n_features(), self.width);
        let mut own = Vec::new();
        let q = self.rows_of(block.rows, &mut own);
        let mut dists = vec![0.0; block.rows.len() * JOIN_STRIP];
        for (s, strip) in block.rows.chunks(JOIN_STRIP).enumerate() {
            let (lo, hi) = (s * JOIN_STRIP, s * JOIN_STRIP + strip.len());
            // Only the block's rows before the strip's end pair with a
            // later row of it: those before the strip with all of it, as
            // in `across`, and those in it with the strip's later rows.
            let dists = &mut dists[..hi * strip.len()];
            self.metric
                .dist_block(&q[..hi * p], &q[lo * p..hi * p], p, dists);
            let (before, strip_lists) = block.lists[..hi * w].split_at_mut(lo * w);
            offer_both_ways(
                w,
                before,
                &block.rows[..lo],
                &dists[..lo * strip.len()],
                strip_lists,
                strip,
            );
            for (a, row_dists) in (lo..hi).zip(dists[lo * strip.len()..].chunks_exact(strip.len()))
            {
                for c in a + 1..hi {
                    let d = row_dists[c - lo];
                    offer(&mut block.lists[a * w..(a + 1) * w], d, block.rows[c]);
                    offer(&mut block.lists[c * w..(c + 1) * w], d, block.rows[a]);
                }
            }
        }
        let mut buf = Vec::new();
        for strip in self.others.chunks(JOIN_STRIP) {
            let o = self.rows_of(strip, &mut buf);
            let dists = &mut dists[..block.rows.len() * strip.len()];
            self.metric.dist_block(q, o, p, dists);
            for (list, row_dists) in block
                .lists
                .chunks_exact_mut(w)
                .zip(dists.chunks_exact(strip.len()))
            {
                offer_each(list, row_dists, strip, usize::MAX);
            }
        }
    }

    /// Offers every pair of a row of `a` and a row of `b` to both rows'
    /// lists, each distance computed once.
    fn across(&self, a: &mut Block, b: &mut Block) {
        let (p, w) = (self.data.n_features(), self.width);
        let mut own = Vec::new();
        let q = self.rows_of(a.rows, &mut own);
        let mut buf = Vec::new();
        let mut dists = vec![0.0; a.rows.len() * JOIN_STRIP];
        for (s, strip) in b.rows.chunks(JOIN_STRIP).enumerate() {
            let o = self.rows_of(strip, &mut buf);
            let dists = &mut dists[..a.rows.len() * strip.len()];
            self.metric.dist_block(q, o, p, dists);
            let strip_lists = &mut b.lists[s * JOIN_STRIP * w..][..strip.len() * w];
            offer_both_ways(w, a.lists, a.rows, dists, strip_lists, strip);
        }
    }

    /// The coordinates of `rows`, row-major and prepared for the metric:
    /// a slice of the dataset when they are consecutive rows the metric
    /// takes as they are, else a copy in `buf`.
    fn rows_of<'b>(&'b self, rows: &[usize], buf: &'b mut Vec<f64>) -> &'b [f64] {
        if !self.metric.normalizes() && rows.windows(2).all(|w| w[1] == w[0] + 1) {
            let p = self.data.n_features();
            return &self.data.features()[rows[0] * p..][..rows.len() * p];
        }
        gather(self.data, self.metric, rows, buf);
        buf
    }
}

/// Copies the coordinates of `rows` into `buf`, row-major and prepared
/// for `metric`.
fn gather(data: &Dataset, metric: Metric, rows: &[usize], buf: &mut Vec<f64>) {
    buf.clear();
    for &row in rows {
        buf.extend_from_slice(data.row(row));
    }
    metric.prepare_rows(buf, data.n_features());
}

/// Offers `(sq_dist, row)` to a full list (a max-heap whose empty slots
/// hold [`UNSET`]): it replaces the list's last entry when it sorts
/// before it.
#[inline]
fn offer(list: &mut [SqNeighbor], sq_dist: f64, row: usize) {
    let hit = SqNeighbor { row, sq_dist };
    if after(&list[0], &hit) {
        list[0] = hit;
        sift_down(list, 0);
    }
}

/// The smallest of `dists` (`+∞` for none), in eight independent
/// chains the compiler keeps in vector registers.
#[inline]
fn least(dists: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; 8];
    let mut octs = dists.chunks_exact(8);
    for oct in octs.by_ref() {
        for (m, &d) in lanes.iter_mut().zip(oct) {
            *m = if d < *m { d } else { *m };
        }
    }
    for (m, &d) in lanes.iter_mut().zip(octs.remainder()) {
        *m = if d < *m { d } else { *m };
    }
    lanes.into_iter().fold(f64::INFINITY, f64::min)
}

/// [`offer`]s one list each distance of `dists` with its row of `rows`,
/// but for row `skip`. A list's last entry only moves down, so a batch
/// whose least distance lies beyond it offers nothing.
#[inline]
fn offer_each(list: &mut [SqNeighbor], dists: &[f64], rows: &[usize], skip: usize) {
    let mut last = list[0].sq_dist;
    if least(dists) > last {
        return;
    }
    for (&d, &row) in dists.iter().zip(rows) {
        if d <= last && row != skip {
            offer(list, d, row);
            last = list[0].sq_dist;
        }
    }
}

/// Offers each pair of a row of `rows` and a row of `strip` to both rows'
/// lists (`w` slots per row), given their distances (`dists`, one row per
/// row of `rows`).
fn offer_both_ways(
    w: usize,
    lists: &mut [SqNeighbor],
    rows: &[usize],
    dists: &[f64],
    strip_lists: &mut [SqNeighbor],
    strip: &[usize],
) {
    let n = strip.len();
    // Each strip row's least distance to `rows`, to skip the lists no row
    // of `rows` enters.
    let mut nearest = [f64::INFINITY; JOIN_STRIP];
    for (list, row_dists) in lists.chunks_exact_mut(w).zip(dists.chunks_exact(n)) {
        for (m, &d) in nearest.iter_mut().zip(row_dists) {
            *m = if d < *m { d } else { *m };
        }
        offer_each(list, row_dists, strip, usize::MAX);
    }
    for (i, (list, &m)) in strip_lists.chunks_exact_mut(w).zip(&nearest).enumerate() {
        let mut last = list[0].sq_dist;
        if m > last {
            continue;
        }
        for (&row, row_dists) in rows.iter().zip(dists.chunks_exact(n)) {
            let d = row_dists[i];
            if d <= last {
                offer(list, d, row);
                last = list[0].sq_dist;
            }
        }
    }
}

/// Which index implementation backs the granulation / neighbour queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GranulationBackend {
    /// Choose per dataset shape: brute force below 256 rows, the KD-tree
    /// up to 24 features, brute force beyond (see
    /// [`GranulationBackend::resolve`]).
    #[default]
    Auto,
    /// Linear scan over alive rows. Exact reference; best for tiny data
    /// and worst-case dimensionality.
    Brute,
    /// Median-split KD-tree. Best at low/medium `p`.
    KdTree,
    /// Vantage-point tree. Best when intrinsic dimensionality is low even
    /// if ambient `p` is large; `Auto` never picks it.
    VpTree,
}

impl GranulationBackend {
    /// The concrete (non-`Auto`) backends, for sweeps and property tests.
    pub const CONCRETE: [GranulationBackend; 3] = [
        GranulationBackend::Brute,
        GranulationBackend::KdTree,
        GranulationBackend::VpTree,
    ];

    /// CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GranulationBackend::Auto => "auto",
            GranulationBackend::Brute => "brute",
            GranulationBackend::KdTree => "kdtree",
            GranulationBackend::VpTree => "vptree",
        }
    }

    /// Parses a CLI spelling.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(GranulationBackend::Auto),
            "brute" | "bruteforce" | "linear" => Some(GranulationBackend::Brute),
            "kdtree" | "kd" | "kd-tree" => Some(GranulationBackend::KdTree),
            "vptree" | "vp" | "vp-tree" => Some(GranulationBackend::VpTree),
            _ => None,
        }
    }

    /// Resolves `Auto` to a concrete backend for a dataset shape: brute
    /// force under 256 rows (a tree's build outweighs its pruning), the
    /// KD-tree up to 24 features, and brute force for wider rows, where
    /// neither tree prunes enough to beat RD-GBG's batched scan, which
    /// streams the alive rows once per iteration for all of its
    /// candidates. Measured on catalog samples and gaussian probes at
    /// p = 32 to 256 (BENCH_GRANULATION.json entry 7), brute force was the
    /// fastest backend in every cell wider than 24 features, for RD-GBG
    /// and for GBG++'s attention peel, the other granulator whose cost the
    /// backend sets.
    #[must_use]
    pub fn resolve(self, n_samples: usize, n_features: usize) -> Self {
        match self {
            GranulationBackend::Auto => {
                if n_samples < 256 {
                    // Tree build overhead beats query savings on tiny data.
                    GranulationBackend::Brute
                } else if n_features <= 24 {
                    GranulationBackend::KdTree
                } else {
                    // Wide rows: trees prune too little to beat one blocked
                    // sweep per RD-GBG iteration (BENCH_GRANULATION.json
                    // entry 7).
                    GranulationBackend::Brute
                }
            }
            concrete => concrete,
        }
    }

    /// Builds an index over every row of `data` (squared Euclidean).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    #[must_use]
    pub fn build(self, data: &Dataset) -> Box<dyn NeighborIndex> {
        self.build_with(data, Metric::SqEuclidean)
    }

    /// Builds an index over every row of `data` under `metric`. Tree
    /// backends take their bucket size from [`calibrated_leaf_size`], one
    /// measured leaf per width class — leaf size changes traversal
    /// granularity only, never results.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    #[must_use]
    pub fn build_with(self, data: &Dataset, metric: Metric) -> Box<dyn NeighborIndex> {
        match self.resolve(data.n_samples(), data.n_features()) {
            GranulationBackend::Brute => Box::new(BruteIndex::build_with(data, metric)),
            GranulationBackend::KdTree => Box::new(KdTree::build_with(
                data,
                calibrated_leaf_size(data.n_features()),
                metric,
            )),
            GranulationBackend::VpTree => Box::new(VpTree::build_with(
                data,
                calibrated_leaf_size(data.n_features()),
                metric,
            )),
            GranulationBackend::Auto => unreachable!("resolve returns concrete"),
        }
    }
}

impl fmt::Display for GranulationBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn random_data(n: usize, p: usize, q: u32, seed: u64) -> Dataset {
        let mut rng = rng_from_seed(seed);
        let feats: Vec<f64> = (0..n * p).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        Dataset::from_parts(feats, labels, p, q as usize)
    }

    fn backends(data: &Dataset) -> Vec<(&'static str, Box<dyn NeighborIndex>)> {
        GranulationBackend::CONCRETE
            .iter()
            .map(|b| (b.name(), b.build(data)))
            .collect()
    }

    /// Reference result computed straight from the dataset.
    fn ref_k_nearest(
        data: &Dataset,
        alive: &[bool],
        query: &[f64],
        k: usize,
        skip: Option<usize>,
    ) -> Vec<SqNeighbor> {
        let mut all: Vec<SqNeighbor> = (0..data.n_samples())
            .filter(|&r| alive[r] && Some(r) != skip)
            .map(|r| SqNeighbor {
                row: r,
                sq_dist: sq_euclidean(data.row(r), query),
            })
            .collect();
        all.sort_by(|a, b| {
            a.sq_dist
                .partial_cmp(&b.sq_dist)
                .unwrap()
                .then_with(|| a.row.cmp(&b.row))
        });
        all.truncate(k);
        all
    }

    /// Rows and distance bits of a result, for bit-level comparison.
    fn bits(hits: &[SqNeighbor]) -> Vec<(usize, u64)> {
        hits.iter().map(|h| (h.row, h.sq_dist.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn k_nearest_par_equals_repeated_single_queries(
            width in 0usize..7,
            n in 1usize..90,
            metric in 0usize..3,
            grid in 0usize..2,
            k_pick in 0usize..5,
            subset in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            // The self-join's oracle: every list equals its row's single
            // query bit for bit, on every backend's liveness, however the
            // requested rows are cut into blocks.
            let p = [1, 2, 3, 4, 5, 17, 256][width];
            let metric = Metric::ALL[metric];
            let mut rng = rng_from_seed(seed);
            // Tiny grids: duplicate rows and distance ties are common. The
            // first mixes -0.0 and 0.0; the second is the integer grid on
            // which cosine puts collinear rows a rounding error apart.
            let values: &[f64] = [&[-1.0, -0.0, 0.0, 1.0, 2.0][..], &[0.0, 1.0, 2.0, 3.0][..]][grid];
            let feats: Vec<f64> = (0..n * p).map(|_| values[rng.gen_range(0..values.len())]).collect();
            let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let data = Dataset::from_parts(feats, labels, p, 2);
            let mut idx: Vec<(&str, Box<dyn NeighborIndex>)> = GranulationBackend::CONCRETE
                .iter()
                .map(|b| (b.name(), b.build_with(&data, metric)))
                .collect();
            let mut alive = vec![true; n];
            for (row, a) in alive.iter_mut().enumerate() {
                if rng.gen_bool(0.3) {
                    *a = false;
                    for (_, ix) in idx.iter_mut() {
                        ix.delete(row);
                    }
                }
            }
            let n_alive = alive.iter().filter(|&&a| a).count();
            let k = [0, 1, 5, n_alive.saturating_sub(1), n_alive + 1][k_pick];
            // All alive rows in ascending order (consecutive runs read
            // straight from the dataset), or a strict subset in random
            // order (gathered).
            let subset = subset == 1;
            let mut rows: Vec<usize> = (0..n).filter(|&r| alive[r] && (!subset || rng.gen_bool(0.5))).collect();
            if subset {
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.gen_range(0..=i));
                }
            }
            for (name, ix) in &idx {
                let want: Vec<Vec<(usize, u64)>> = rows
                    .iter()
                    .map(|&r| bits(&ix.k_nearest_sq(data.row(r), k, Some(r))))
                    .collect();
                let joined = self_join(ix.as_ref(), &data, &rows, k);
                proptest::prop_assert_eq!(joined.len(), rows.len());
                for blocks in [1, 2, 3, 8] {
                    let split = self_join_in(ix.as_ref(), &data, &rows, k, blocks);
                    for (i, list) in split.iter().enumerate() {
                        proptest::prop_assert_eq!(
                            bits(list), want[i].clone(),
                            "{} p={} {} row {} blocks {}", name, p, metric, rows[i], blocks
                        );
                        proptest::prop_assert_eq!(bits(joined.get(i)), want[i].clone());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "alive and distinct")]
    fn self_join_refuses_a_row_requested_twice() {
        let data = random_data(10, 4, 2, 3);
        let _ = self_join(&BruteIndex::build(&data), &data, &[1, 2, 1], 3);
    }

    #[test]
    #[should_panic(expected = "alive and distinct")]
    fn self_join_refuses_a_deleted_row() {
        // A tree: the join's blocked path (the brute backend's packed pass
        // is the twice-requested test's).
        let data = random_data(10, 4, 2, 3);
        let mut ix = GranulationBackend::KdTree.build(&data);
        ix.delete(2);
        let _ = self_join(ix.as_ref(), &data, &[1, 2], 3);
    }

    #[test]
    fn trees_are_exact_on_rows_a_rounding_error_apart() {
        // Small integer grids, normalized for cosine: collinear rows land
        // ~1e-16 apart, a gap the rounding of every vantage distance
        // dwarfs, and tie at that distance. The VP-tree once pruned such
        // ties away.
        for seed in 0..300u64 {
            let mut rng = rng_from_seed(seed);
            let (n, p) = (40, 2 + seed as usize % 2);
            let feats: Vec<f64> = (0..n * p)
                .map(|_| f64::from(rng.gen_range(0..4u32)))
                .collect();
            let data = Dataset::from_parts(feats, vec![0; n], p, 1);
            let mut idx: Vec<(&str, Box<dyn NeighborIndex>)> = GranulationBackend::CONCRETE
                .iter()
                .map(|b| (b.name(), b.build_with(&data, Metric::Cosine)))
                .collect();
            for row in 0..n {
                if rng.gen_bool(0.3) {
                    for (_, ix) in idx.iter_mut() {
                        ix.delete(row);
                    }
                }
            }
            for row in 0..n {
                for k in [1, 2, 3, 5] {
                    let want = bits(&idx[0].1.k_nearest_sq(data.row(row), k, Some(row)));
                    for (name, ix) in &idx[1..] {
                        let got = bits(&ix.k_nearest_sq(data.row(row), k, Some(row)));
                        assert_eq!(got, want, "{name} seed {seed} row {row} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn kbest_keeps_exact_topk_with_ties() {
        let mut kb = KBest::new(3);
        for (d, r) in [(2.0, 5), (1.0, 9), (1.0, 2), (3.0, 0), (1.0, 7), (0.5, 4)] {
            kb.insert(d, r);
        }
        let got = kb.into_sorted();
        let rows: Vec<usize> = got.iter().map(|n| n.row).collect();
        // 0.5@4, then the 1.0 ties by ascending row: 2, 7
        assert_eq!(rows, vec![4, 2, 7]);
    }

    #[test]
    fn kbest_merge_is_chunking_invariant() {
        let entries: Vec<(f64, usize)> = (0..200)
            .map(|i| ((i * 37 % 101) as f64 * 0.25, i))
            .collect();
        let mut whole = KBest::new(9);
        for &(d, r) in &entries {
            whole.insert(d, r);
        }
        let mut left = KBest::new(9);
        let mut right = KBest::new(9);
        for &(d, r) in &entries[..97] {
            left.insert(d, r);
        }
        for &(d, r) in &entries[97..] {
            right.insert(d, r);
        }
        left.merge(&right);
        assert_eq!(whole.into_sorted(), left.into_sorted());
    }

    #[test]
    fn all_backends_agree_with_reference_under_deletions() {
        // The last input is a 1-d line of repeated integer points, where
        // every query meets exact duplicates and equidistant rows.
        let line = Dataset::from_parts(
            (0..60).map(|i| f64::from(i % 7)).collect(),
            vec![0; 60],
            1,
            1,
        );
        for data in [
            random_data(120, 2, 3, 120),
            random_data(150, 7, 3, 150),
            random_data(90, 40, 3, 90),
            line,
        ] {
            let (n, p) = (data.n_samples(), data.n_features());
            let mut alive = vec![true; n];
            let mut idx = backends(&data);
            let mut rng = rng_from_seed(17);
            for round in 0..6 {
                // delete a random batch
                for _ in 0..n / 10 {
                    let r = rng.gen_range(0..n);
                    if alive.iter().filter(|&&a| a).count() <= 5 {
                        break;
                    }
                    if alive[r] {
                        alive[r] = false;
                        for (_, ix) in idx.iter_mut() {
                            assert!(ix.delete(r));
                        }
                    }
                }
                for _ in 0..10 {
                    let qi = rng.gen_range(0..n);
                    let skip = if rng.gen_bool(0.5) { Some(qi) } else { None };
                    let q = data.row(qi).to_vec();
                    let want = ref_k_nearest(&data, &alive, &q, 4, skip);
                    for (name, ix) in idx.iter() {
                        let got = ix.k_nearest_sq(&q, 4, skip);
                        assert_eq!(
                            got.iter().map(|h| h.row).collect::<Vec<_>>(),
                            want.iter().map(|h| h.row).collect::<Vec<_>>(),
                            "{name} n={n} p={p} round={round}"
                        );
                        assert_eq!(ix.n_alive(), alive.iter().filter(|&&a| a).count());
                    }
                }
            }
        }
    }

    #[test]
    fn heterogeneous_and_range_agree_across_backends() {
        let data = random_data(140, 3, 4, 9);
        let mut idx = backends(&data);
        let mut rng = rng_from_seed(5);
        for _ in 0..25 {
            let del = rng.gen_range(0..data.n_samples());
            for (_, ix) in idx.iter_mut() {
                ix.delete(del);
            }
        }
        for _ in 0..20 {
            let qi = rng.gen_range(0..data.n_samples());
            let q = data.row(qi).to_vec();
            let label = data.label(qi);
            let sq_bound = rng.gen_range(0.5..40.0);
            let het: Vec<Option<SqNeighbor>> = idx
                .iter()
                .map(|(_, ix)| ix.nearest_heterogeneous_sq(&q, label, Some(qi)))
                .collect();
            for w in het.windows(2) {
                match (&w[0], &w[1]) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.row, b.row);
                        assert!((a.sq_dist - b.sq_dist).abs() < 1e-12);
                    }
                    (None, None) => {}
                    _ => panic!("backends disagree on heterogeneous existence"),
                }
            }
            for bound in [RangeBound::Strict, RangeBound::Inclusive] {
                let mut sets: Vec<Vec<usize>> = idx
                    .iter()
                    .map(|(_, ix)| {
                        let mut rows: Vec<usize> = ix
                            .range_sq(&q, sq_bound, bound, Some(qi))
                            .into_iter()
                            .map(|h| h.row)
                            .collect();
                        rows.sort_unstable();
                        rows
                    })
                    .collect();
                let first = sets.remove(0);
                for s in sets {
                    assert_eq!(first, s, "range sets differ");
                }
            }
        }
    }

    #[test]
    fn delete_reports_double_delete() {
        let data = random_data(20, 2, 2, 1);
        for (_, mut ix) in backends(&data) {
            assert!(ix.delete(3));
            assert!(!ix.delete(3));
            assert!(!ix.is_alive(3));
            assert_eq!(ix.n_alive(), 19);
            assert_eq!(ix.n_rows(), 20);
        }
    }

    #[test]
    fn deleted_rows_never_returned() {
        let data = random_data(50, 2, 2, 2);
        for (name, mut ix) in backends(&data) {
            for r in 0..25 {
                ix.delete(r * 2);
            }
            let hits = ix.k_nearest_sq(data.row(0), 50, None);
            assert_eq!(hits.len(), 25, "{name}");
            assert!(hits.iter().all(|h| h.row % 2 == 1), "{name}");
        }
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let data = random_data(10, 2, 2, 3);
        for (_, ix) in backends(&data) {
            assert!(ix.k_nearest_sq(data.row(0), 0, None).is_empty());
            assert_eq!(ix.k_nearest_sq(data.row(0), 99, Some(0)).len(), 9);
        }
    }

    #[test]
    fn distance_ordered_yields_full_sorted_sequence_on_every_backend() {
        for (n, p) in [(1usize, 2usize), (40, 2), (130, 5), (90, 40)] {
            let data = random_data(n, p, 3, 7 + n as u64);
            let mut alive = vec![true; n];
            let mut idx = backends(&data);
            let mut rng = rng_from_seed(3);
            for _ in 0..n / 4 {
                let r = rng.gen_range(0..n);
                if alive[r] && alive.iter().filter(|&&a| a).count() > 2 {
                    alive[r] = false;
                    for (_, ix) in idx.iter_mut() {
                        ix.delete(r);
                    }
                }
            }
            let q = data.row(rng.gen_range(0..n)).to_vec();
            let n_alive = alive.iter().filter(|&&a| a).count();
            let want = ref_k_nearest(&data, &alive, &q, n_alive, None);
            let mut sequences: Vec<Vec<SqNeighbor>> = Vec::new();
            for (name, ix) in idx.iter() {
                let got: Vec<SqNeighbor> = ix.distance_ordered(&q).collect();
                assert_eq!(got.len(), want.len(), "{name} n={n} p={p}");
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(g.row, w.row, "{name} n={n} p={p}");
                }
                // A short prefix (the peel consumer's pattern) agrees too.
                let prefix: Vec<usize> = ix.distance_ordered(&q).take(5).map(|h| h.row).collect();
                let want_prefix: Vec<usize> = want.iter().take(5).map(|h| h.row).collect();
                assert_eq!(prefix, want_prefix, "{name} prefix");
                sequences.push(got);
            }
            // Distances are bit-identical across backends (the width-keyed
            // kernel contract), though not necessarily vs the sequential
            // reference kernel at p >= LANE_WIDTH.
            for pair in sequences.windows(2) {
                for (a, b) in pair[0].iter().zip(pair[1].iter()) {
                    assert_eq!(a.sq_dist.to_bits(), b.sq_dist.to_bits(), "n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn distance_ordered_is_usable_through_dyn() {
        let data = random_data(50, 3, 2, 11);
        let ix: Box<dyn NeighborIndex> = GranulationBackend::KdTree.build(&data);
        let rows: Vec<usize> = ix.distance_ordered(data.row(0)).map(|h| h.row).collect();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0], 0, "self is nearest to itself");
    }

    #[test]
    fn assign_to_nearest_matches_per_pair_argmin() {
        for p in [1usize, 2, 3, 7, 16] {
            let data = random_data(300, p, 2, 100 + p as u64);
            let cents = random_data(6, p, 2, 200 + p as u64);
            let mut out = vec![u32::MAX; 300];
            assign_to_nearest(data.features(), cents.features(), p, &mut out);
            for (r, &got) in out.iter().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..6 {
                    let d = sq_euclidean(data.row(r), cents.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assert_eq!(got as usize, best, "p={p} row {r}");
            }
        }
    }

    #[test]
    fn assign_to_nearest_ties_break_toward_smaller_centroid() {
        // Two identical centroids: every point must pick centroid 0.
        let points = [0.0, 0.0, 3.0, 4.0, -1.0, 2.5];
        let cents = [1.0, 1.0, 1.0, 1.0];
        let mut out = [9u32; 3];
        assign_to_nearest(&points, &cents, 2, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "points must be exactly")]
    fn assign_to_nearest_rejects_ragged_points() {
        let mut out = [0u32; 2];
        assign_to_nearest(&[0.0; 5], &[0.0; 2], 2, &mut out);
    }

    #[test]
    fn backend_parsing_and_auto_resolution() {
        assert_eq!(
            GranulationBackend::from_str_opt("KD-Tree"),
            Some(GranulationBackend::KdTree)
        );
        assert_eq!(
            GranulationBackend::from_str_opt("vp"),
            Some(GranulationBackend::VpTree)
        );
        assert_eq!(GranulationBackend::from_str_opt("quantum"), None);
        assert_eq!(
            GranulationBackend::Auto.resolve(100, 2),
            GranulationBackend::Brute
        );
        assert_eq!(
            GranulationBackend::Auto.resolve(10_000, 2),
            GranulationBackend::KdTree
        );
        assert_eq!(
            GranulationBackend::Auto.resolve(10_000, 24),
            GranulationBackend::KdTree
        );
        assert_eq!(
            GranulationBackend::Auto.resolve(10_000, 25),
            GranulationBackend::Brute
        );
        assert_eq!(
            GranulationBackend::Auto.resolve(10_000, 128),
            GranulationBackend::Brute
        );
        assert_eq!(
            GranulationBackend::Brute.resolve(10_000, 128),
            GranulationBackend::Brute
        );
        assert_eq!(format!("{}", GranulationBackend::KdTree), "kdtree");
    }
}
