//! Brute-force nearest-neighbour search.
//!
//! The algorithms in this workspace (RD-GBG center detection, SMOTE variants,
//! Tomek links, the kNN classifier) all need "k nearest rows of a dataset to
//! a query point". A flat brute-force scan with a bounded max-heap is exact,
//! cache-friendly on the row-major buffer, and fast enough for the paper's
//! dataset sizes (≤ 58 000 × 256).
//!
//! Rows of a lane width or more scan in blocks of `SCAN_BLOCK` (128) through
//! the batched [`sq_euclidean_one_to_many`] kernel: one tier dispatch per
//! block and the row-major slab streams linearly through cache; filtered
//! blocks fall back to per-pair [`sq_euclidean_dispatched`] calls for kept
//! rows only (same lane tree → same bits). Sub-lane rows keep the fused
//! per-pair loop — there is no vector work to batch at p < 4, and the
//! inline sequential kernel is the fastest thing there is.
//!
//! The all-rows self-join ([`k_nearest_all_rows`], the Tomek/ENN shape)
//! additionally tiles *queries* in groups of `QUERY_TILE` (16) through the
//! register-blocked many-to-many kernel [`sq_dist_block`], which reuses
//! each candidate-row load across the whole query tile. The blocked kernel
//! is bit-identical to repeated one-to-many calls (kernel contract v2), so
//! results match the per-row path exactly.

use crate::dataset::Dataset;
use crate::distance::{
    sq_dist_block, sq_euclidean, sq_euclidean_dispatched, sq_euclidean_one_to_many, LANE_WIDTH,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rows per batched-kernel call in the scan loops (the distance buffer lives
/// on the stack).
const SCAN_BLOCK: usize = 128;

/// Queries per blocked many-to-many call in the all-rows self-join. Each
/// candidate-row block is loaded once and streamed against the whole tile.
const QUERY_TILE: usize = 16;

/// A neighbour hit: dataset row index plus (non-squared) distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the searched dataset.
    pub index: usize,
    /// Euclidean distance to the query.
    pub distance: f64,
}

/// Max-heap entry ordered by squared distance (ties broken by index for
/// determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    sq_dist: f64,
    index: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sq_dist
            .partial_cmp(&other.sq_dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Returns the `k` nearest rows of `data` to `query`, sorted by ascending
/// distance (ties by ascending row index). `skip` lets callers exclude the
/// query's own row (`Some(row)`); pass `None` to search all rows.
///
/// Returns fewer than `k` hits when the dataset is smaller than `k`.
#[must_use]
pub fn k_nearest(data: &Dataset, query: &[f64], k: usize, skip: Option<usize>) -> Vec<Neighbor> {
    k_nearest_filtered(data, query, k, |i| Some(i) != skip)
}

/// Like [`k_nearest`], restricted to rows for which `keep` returns true.
#[must_use]
pub fn k_nearest_filtered(
    data: &Dataset,
    query: &[f64],
    k: usize,
    mut keep: impl FnMut(usize) -> bool,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    assert_eq!(
        query.len(),
        data.n_features(),
        "query width must match the dataset"
    );
    let p = data.n_features();
    let feats = data.features();
    let mut dists = [0.0f64; SCAN_BLOCK];
    let mut admitted = [false; SCAN_BLOCK];
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    let insert = |heap: &mut BinaryHeap<HeapEntry>, i: usize, d: f64| heap_insert(heap, k, i, d);
    if p < LANE_WIDTH {
        // Sub-lane rows have no vector work to batch: one fused loop of
        // the inline per-pair kernel, exactly the pre-SIMD shape.
        for i in 0..data.n_samples() {
            if keep(i) {
                insert(
                    &mut heap,
                    i,
                    sq_euclidean(query, &feats[i * p..(i + 1) * p]),
                );
            }
        }
        return finish_heap(heap);
    }
    let mut lo = 0;
    // Hybrid blocked sweep: a block whose rows all pass `keep` takes one
    // batched kernel call over the contiguous row-major slab; a filtered
    // block (self-exclusion, same-class donor searches) pays per-pair
    // kernel calls for kept rows only. Same tier both ways → same bits.
    while lo < data.n_samples() {
        let hi = (lo + SCAN_BLOCK).min(data.n_samples());
        let mut kept = 0usize;
        for i in lo..hi {
            admitted[i - lo] = keep(i);
            kept += usize::from(admitted[i - lo]);
        }
        if kept == hi - lo {
            sq_euclidean_one_to_many(query, &feats[lo * p..hi * p], &mut dists[..hi - lo]);
            for i in lo..hi {
                insert(&mut heap, i, dists[i - lo]);
            }
        } else if kept > 0 {
            for i in lo..hi {
                if admitted[i - lo] {
                    let d = sq_euclidean_dispatched(query, &feats[i * p..(i + 1) * p]);
                    insert(&mut heap, i, d);
                }
            }
        }
        lo = hi;
    }
    finish_heap(heap)
}

/// Pushes `(d, i)` into a bounded best-`k` max-heap (ties break toward the
/// lower row index, matching the sorted output order).
fn heap_insert(heap: &mut BinaryHeap<HeapEntry>, k: usize, i: usize, d: f64) {
    if heap.len() < k {
        heap.push(HeapEntry {
            sq_dist: d,
            index: i,
        });
    } else if let Some(top) = heap.peek() {
        if d < top.sq_dist || (d == top.sq_dist && i < top.index) {
            heap.pop();
            heap.push(HeapEntry {
                sq_dist: d,
                index: i,
            });
        }
    }
}

/// Drains a best-`k` heap into ascending `(distance, row)` order.
fn finish_heap(heap: BinaryHeap<HeapEntry>) -> Vec<Neighbor> {
    let mut hits: Vec<HeapEntry> = heap.into_vec();
    hits.sort_unstable();
    hits.into_iter()
        .map(|e| Neighbor {
            index: e.index,
            distance: e.sq_dist.sqrt(),
        })
        .collect()
}

/// All distances from `query` to every row, as `(row, distance)` sorted
/// ascending. Used by RD-GBG, which consumes the full ordered sequence when
/// growing a ball ("the distance calculated by the local-density center
/// detection ... is also used for subsequent construction of the GB").
#[must_use]
pub fn sorted_distances(data: &Dataset, query: &[f64], skip: Option<usize>) -> Vec<Neighbor> {
    assert_eq!(
        query.len(),
        data.n_features(),
        "query width must match the dataset"
    );
    let n = data.n_samples();
    let mut sq = vec![0.0f64; n];
    sq_euclidean_one_to_many(query, data.features(), &mut sq);
    let mut all: Vec<Neighbor> = (0..n)
        .filter(|&i| Some(i) != skip)
        .map(|i| Neighbor {
            index: i,
            distance: sq[i],
        })
        .collect();
    all.sort_unstable_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.index.cmp(&b.index))
    });
    for n in &mut all {
        n.distance = n.distance.sqrt();
    }
    all
}

/// The single nearest row (excluding `skip`), or `None` on an empty search.
#[must_use]
pub fn nearest(data: &Dataset, query: &[f64], skip: Option<usize>) -> Option<Neighbor> {
    k_nearest(data, query, 1, skip).into_iter().next()
}

/// Batch form of [`k_nearest`] for external queries, one result per query,
/// computed in parallel across worker threads. Results are identical to
/// (and ordered like) the sequential per-query calls — batch queries are
/// embarrassingly parallel.
#[must_use]
pub fn k_nearest_batch(data: &Dataset, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
    use rayon::prelude::*;
    queries
        .par_iter()
        .map(|q| k_nearest(data, q, k, None))
        .collect()
}

/// Batch self-join: the `k` nearest neighbours of every *row* of `data`
/// (each row excluded from its own neighbourhood), in parallel. Backs
/// all-rows neighbour passes such as Tomek-link detection; samplers whose
/// per-row search carries an extra filter (ENN's class edit rule, the
/// SMOTE family's same-class donor search) parallelize their own filtered
/// loops instead.
/// Rows of a lane width or more tile their queries through the blocked
/// many-to-many kernel so every candidate-row block is loaded once per
/// `QUERY_TILE` queries; sub-lane widths keep the per-row scan (the
/// blocked kernel has no vector work there). Either way the results are
/// bit-identical to the sequential per-row calls.
#[must_use]
pub fn k_nearest_all_rows(data: &Dataset, k: usize) -> Vec<Vec<Neighbor>> {
    use rayon::prelude::*;
    let n = data.n_samples();
    let p = data.n_features();
    if k == 0 {
        return vec![Vec::new(); n];
    }
    if p < LANE_WIDTH {
        return (0..n)
            .into_par_iter()
            .map(|i| k_nearest(data, data.row(i), k, Some(i)))
            .collect();
    }
    let feats = data.features();
    let tiles: Vec<Vec<Vec<Neighbor>>> = (0..n.div_ceil(QUERY_TILE))
        .into_par_iter()
        .map(|t| {
            let q_lo = t * QUERY_TILE;
            let q_hi = (q_lo + QUERY_TILE).min(n);
            let nq = q_hi - q_lo;
            let queries = &feats[q_lo * p..q_hi * p];
            let mut dists = vec![0.0f64; nq * SCAN_BLOCK];
            let mut heaps: Vec<BinaryHeap<HeapEntry>> =
                (0..nq).map(|_| BinaryHeap::with_capacity(k + 1)).collect();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + SCAN_BLOCK).min(n);
                let rows = hi - lo;
                sq_dist_block(queries, &feats[lo * p..hi * p], p, &mut dists[..nq * rows]);
                for (qi, heap) in heaps.iter_mut().enumerate() {
                    let self_row = q_lo + qi;
                    let row_d = &dists[qi * rows..(qi + 1) * rows];
                    for (r, &d) in row_d.iter().enumerate() {
                        let i = lo + r;
                        if i != self_row {
                            heap_insert(heap, k, i, d);
                        }
                    }
                }
                lo = hi;
            }
            heaps.into_iter().map(finish_heap).collect()
        })
        .collect();
    tiles.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Dataset {
        // points at x = 0, 1, 2, 3, 4 on a line
        Dataset::from_parts(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0, 0, 1, 1, 1], 1, 2)
    }

    #[test]
    fn k_nearest_orders_by_distance() {
        let d = line();
        let hits = k_nearest(&d, &[2.2], 3, None);
        assert_eq!(
            hits.iter().map(|h| h.index).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        assert!((hits[0].distance - 0.2).abs() < 1e-12);
    }

    #[test]
    fn skip_excludes_self() {
        let d = line();
        let hits = k_nearest(&d, d.row(2), 2, Some(2));
        assert_eq!(hits.iter().map(|h| h.index).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn ties_break_by_index() {
        let d = line();
        // query at 1.5 is equidistant from rows 1 and 2
        let hits = k_nearest(&d, &[1.5], 2, None);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 2);
    }

    #[test]
    fn fewer_rows_than_k() {
        let d = line();
        let hits = k_nearest(&d, &[0.0], 100, None);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn k_zero_is_empty() {
        let d = line();
        assert!(k_nearest(&d, &[0.0], 0, None).is_empty());
    }

    #[test]
    fn sorted_distances_full_order() {
        let d = line();
        let all = sorted_distances(&d, &[0.0], None);
        assert_eq!(
            all.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!((all[4].distance - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_k1() {
        let d = line();
        let n = nearest(&d, &[3.9], None).unwrap();
        assert_eq!(n.index, 4);
    }

    #[test]
    fn filtered_search_respects_predicate() {
        let d = line();
        let hits = k_nearest_filtered(&d, &[0.0], 2, |i| d.label(i) == 1);
        assert_eq!(hits.iter().map(|h| h.index).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn batch_queries_match_sequential() {
        let d = line();
        let queries: Vec<Vec<f64>> = vec![vec![0.1], vec![2.2], vec![3.9]];
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let batch = k_nearest_batch(&d, &refs, 2);
        for (q, got) in refs.iter().zip(batch.iter()) {
            assert_eq!(got, &k_nearest(&d, q, 2, None));
        }
    }

    #[test]
    fn all_rows_batch_excludes_self() {
        let d = line();
        let all = k_nearest_all_rows(&d, 3);
        assert_eq!(all.len(), d.n_samples());
        for (i, hits) in all.iter().enumerate() {
            assert!(hits.iter().all(|h| h.index != i));
            assert_eq!(hits, &k_nearest(&d, d.row(i), 3, Some(i)));
        }
    }

    #[test]
    fn heap_matches_full_sort_on_random_data() {
        use rand::Rng;
        let mut rng = crate::rng::rng_from_seed(9);
        let n = 200;
        let feats: Vec<f64> = (0..n * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let d = Dataset::from_parts(feats, vec![0; n], 3, 1);
        let q = [0.1, -0.2, 0.3];
        let full = sorted_distances(&d, &q, None);
        let topk = k_nearest(&d, &q, 7, None);
        for (a, b) in full.iter().zip(topk.iter()) {
            assert_eq!(a.index, b.index);
            assert!((a.distance - b.distance).abs() < 1e-9);
        }
    }
}
