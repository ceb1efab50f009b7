//! Incremental max-radius KD-trees over finished balls.
//!
//! Two queries run against the ball set:
//!
//! * the Eq.-4 **conflict radius** `min_b (‖center_b − c‖ − r_b)⁺` used by
//!   RD-GBG while growing a new ball, and
//! * the **overlap count** `|{b : ‖center_b − c‖ < r_b + r − eps}|` used by
//!   [`crate::diagnostics::count_overlaps`] to audit a cover.
//!
//! Structure: the logarithmic method (Bentley & Saxe, decomposable
//! searching problems) over static max-radius KD-trees. New balls land in
//! a buffer of [`CONFLICT_BUFFER`] balls, scanned brute per query. When it
//! fills, it merges with every trailing tree no larger than the run merged
//! so far into one median-split KD-tree over a contiguous range of
//! insertion ids, each split node carrying the **maximum radius of its
//! subtree** so a whole branch prunes once the axis gap minus `r_max`
//! already decides the query. Tree sizes are distinct powers of two times
//! the buffer, like the bits of a binary counter.
//!
//! Cost: with `m` balls there are at most `log₂(m / 64) + 1` trees, so a
//! query scans at most 64 buffered balls plus one pruned descent per tree,
//! and each ball is rebuilt into a larger tree at most `log₂(m / 64) + 1`
//! times — `O(m log² m)` build work over a whole granulation instead of a
//! brute buffer that grows with `m`.
//!
//! Exactness: leaf-level predicates evaluate the same floating-point
//! expressions as the naive loops (`euclidean − r` for the gap,
//! `GranularBall::overlaps`'s `dist < r_a + r_b − eps` for overlap), pruning
//! bounds are relaxed by `1 − 1e−12` so `sqrt` rounding can only cause
//! extra visits, and `min`/counting are order-independent — results are
//! bit-identical to the brute scans, however the balls are split between
//! the buffer and the trees.
//!
//! Metric: distances here are **rank-space** center distances under the
//! granulation's [`Metric`] — Euclidean for squared-Euclidean (and for
//! cosine, whose granulation runs over normalized rows where Euclidean is
//! the chord), L1 for Manhattan. The per-axis pruning bound `|Δdim|` is a
//! valid lower bound on both the L2 and the L1 center distance, so the
//! same tree serves every metric.

use gb_dataset::distance::{euclidean, Metric};

pub(crate) struct BallConflictIndex {
    /// Flattened centers of every ball seen (row-major).
    centers: Vec<f64>,
    radii: Vec<f64>,
    n_features: usize,
    /// Rank-space metric for center distances.
    metric: Metric,
    /// Static trees over consecutive runs of insertion ids, oldest (and
    /// largest) first; the balls after the last run are the buffer.
    trees: Vec<ConflictTree>,
}

/// One static max-radius KD-tree over the insertion ids `start..end`,
/// rooted at `nodes[0]`.
struct ConflictTree {
    start: usize,
    end: usize,
    nodes: Vec<ConflictNode>,
}

enum ConflictNode {
    Leaf {
        balls: Vec<u32>,
    },
    Split {
        dim: usize,
        value: f64,
        /// Max ball radius within this subtree (pruning slack).
        r_max: f64,
        left: u32,
        right: u32,
    },
}

/// Balls the buffer holds before it is merged into a tree.
const CONFLICT_BUFFER: usize = 64;
const CONFLICT_LEAF: usize = 16;
const CONFLICT_PRUNE_SLACK: f64 = 1.0 - 1e-12;

impl BallConflictIndex {
    pub(crate) fn new(n_features: usize) -> Self {
        Self::new_with(n_features, Metric::SqEuclidean)
    }

    /// An empty index whose center distances run in `metric`'s rank space.
    /// Cosine granulations pass `SqEuclidean` here (they operate on
    /// normalized rows where Euclidean *is* the chord).
    pub(crate) fn new_with(n_features: usize, metric: Metric) -> Self {
        Self {
            centers: Vec::new(),
            radii: Vec::new(),
            n_features,
            metric,
            trees: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.radii.len()
    }

    fn center(&self, i: u32) -> &[f64] {
        let i = i as usize;
        &self.centers[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Balls `0..indexed()` live in the trees; the rest are the buffer.
    fn indexed(&self) -> usize {
        self.trees.last().map_or(0, |t| t.end)
    }

    pub(crate) fn push(&mut self, center: &[f64], radius: f64) {
        debug_assert_eq!(center.len(), self.n_features);
        self.centers.extend_from_slice(center);
        self.radii.push(radius);
        // A full buffer merges with every trailing tree no larger than the
        // run merged so far: tree sizes stay distinct powers of two times
        // the buffer, like the bits of a binary counter.
        let (mut start, end) = (self.indexed(), self.len());
        if end - start < CONFLICT_BUFFER {
            return;
        }
        while let Some(t) = self.trees.pop_if(|t| t.end - t.start <= end - start) {
            start = t.start;
        }
        let mut balls: Vec<u32> = (start as u32..end as u32).collect();
        let mut nodes = Vec::new();
        self.build_rec(&mut nodes, &mut balls);
        self.trees.push(ConflictTree { start, end, nodes });
    }

    /// Median-split build of a non-empty ball set into `nodes`; each split
    /// memoizes its subtree's max radius.
    fn build_rec(&self, nodes: &mut Vec<ConflictNode>, balls: &mut [u32]) -> u32 {
        debug_assert!(!balls.is_empty());
        let id = nodes.len() as u32;
        if balls.len() <= CONFLICT_LEAF {
            nodes.push(ConflictNode::Leaf {
                balls: balls.to_vec(),
            });
            return id;
        }
        // Widest-spread dimension.
        let mut best_dim = 0;
        let mut best_spread = -1.0;
        for d in 0..self.n_features {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &b in balls.iter() {
                let v = self.center(b)[d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_dim = d;
            }
        }
        let mid = balls.len() / 2;
        balls.select_nth_unstable_by(mid, |&a, &b| {
            self.center(a)[best_dim]
                .partial_cmp(&self.center(b)[best_dim])
                .expect("finite centers")
                .then_with(|| a.cmp(&b))
        });
        let value = self.center(balls[mid])[best_dim];
        let r_max = balls
            .iter()
            .map(|&b| self.radii[b as usize])
            .fold(0.0f64, f64::max);
        // The selection left every ball before `mid` at or below `value`
        // on this axis and every ball from `mid` on at or above it.
        let (left, right) = balls.split_at_mut(mid);
        nodes.push(ConflictNode::Leaf { balls: Vec::new() }); // placeholder
        let l = self.build_rec(nodes, left);
        let r = self.build_rec(nodes, right);
        nodes[id as usize] = ConflictNode::Split {
            dim: best_dim,
            value,
            r_max,
            left: l,
            right: r,
        };
        id
    }

    /// Gap from `c` to a stored ball under `dist`, the rank-space
    /// center distance. `dist` is monomorphized by the public entry
    /// points (the sequential `euclidean` for L2 — the sub-lane and
    /// historical shape — `manhattan` otherwise) so the per-ball loop
    /// carries no enum dispatch and index answers stay bit-identical
    /// with the naive loops.
    #[inline]
    fn gap_with(&self, ball: u32, c: &[f64], dist: impl Fn(&[f64], &[f64]) -> f64) -> f64 {
        (dist(self.center(ball), c) - self.radii[ball as usize]).max(0.0)
    }

    /// `min_b (‖center_b − c‖ − r_b)⁺`, or `+inf` with no balls. Adds the
    /// number of balls whose gap it evaluated to `visits`.
    pub(crate) fn conflict_radius(&self, c: &[f64], visits: &mut usize) -> f64 {
        // Branch on the metric once per query, not per ball visit.
        match self.metric {
            Metric::SqEuclidean | Metric::Cosine => self.conflict_radius_with(c, visits, euclidean),
            Metric::Manhattan => {
                self.conflict_radius_with(c, visits, gb_dataset::distance::manhattan)
            }
        }
    }

    fn conflict_radius_with(
        &self,
        c: &[f64],
        visits: &mut usize,
        dist: impl Fn(&[f64], &[f64]) -> f64 + Copy,
    ) -> f64 {
        let mut best = f64::INFINITY;
        // Buffer first (most recent balls are usually nearby).
        for b in self.indexed() as u32..self.len() as u32 {
            best = best.min(self.gap_with(b, c, dist));
        }
        *visits += self.len() - self.indexed();
        for tree in &self.trees {
            self.query_rec(&tree.nodes, 0, c, &mut best, visits, dist);
        }
        best
    }

    fn query_rec(
        &self,
        nodes: &[ConflictNode],
        node: u32,
        c: &[f64],
        best: &mut f64,
        visits: &mut usize,
        dist: impl Fn(&[f64], &[f64]) -> f64 + Copy,
    ) {
        match &nodes[node as usize] {
            ConflictNode::Leaf { balls } => {
                for &b in balls {
                    *best = best.min(self.gap_with(b, c, dist));
                }
                *visits += balls.len();
            }
            ConflictNode::Split {
                dim,
                value,
                r_max,
                left,
                right,
            } => {
                let diff = c[*dim] - value;
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.query_rec(nodes, near, c, best, visits, dist);
                // Any ball on the far side is at least |diff| away from c
                // on this axis, so its gap is ≥ |diff| − r_max.
                if (diff.abs() - r_max) * CONFLICT_PRUNE_SLACK <= *best {
                    self.query_rec(nodes, far, c, best, visits, dist);
                }
            }
        }
    }

    /// Number of inserted balls whose sphere overlaps the sphere
    /// `(c, radius)` — the exact predicate of `GranularBall::overlaps`:
    /// `‖center_b − c‖ < r_b + radius − eps`.
    pub(crate) fn count_overlapping(&self, c: &[f64], radius: f64, eps: f64) -> usize {
        match self.metric {
            Metric::SqEuclidean | Metric::Cosine => {
                self.count_overlapping_with(c, radius, eps, euclidean)
            }
            Metric::Manhattan => {
                self.count_overlapping_with(c, radius, eps, gb_dataset::distance::manhattan)
            }
        }
    }

    fn count_overlapping_with(
        &self,
        c: &[f64],
        radius: f64,
        eps: f64,
        dist: impl Fn(&[f64], &[f64]) -> f64 + Copy,
    ) -> usize {
        let buffer = (self.indexed() as u32..self.len() as u32)
            .filter(|&b| dist(self.center(b), c) < self.radii[b as usize] + radius - eps)
            .count();
        let trees: usize = self
            .trees
            .iter()
            .map(|tree| self.count_rec(&tree.nodes, 0, c, radius, eps, dist))
            .sum();
        buffer + trees
    }

    fn count_rec(
        &self,
        nodes: &[ConflictNode],
        node: u32,
        c: &[f64],
        radius: f64,
        eps: f64,
        dist: impl Fn(&[f64], &[f64]) -> f64 + Copy,
    ) -> usize {
        match &nodes[node as usize] {
            ConflictNode::Leaf { balls } => balls
                .iter()
                .filter(|&&b| dist(self.center(b), c) < self.radii[b as usize] + radius - eps)
                .count(),
            ConflictNode::Split {
                dim,
                value,
                r_max,
                left,
                right,
            } => {
                let diff = c[*dim] - value;
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                let mut count = self.count_rec(nodes, near, c, radius, eps, dist);
                // A far-side ball is ≥ |diff| from c, so it overlaps only if
                // |diff| < r_max + radius − eps. Relaxed so rounding can
                // only cause extra visits, never a miss.
                if diff.abs() * CONFLICT_PRUNE_SLACK < r_max + radius - eps {
                    count += self.count_rec(nodes, far, c, radius, eps, dist);
                }
                count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::distance::manhattan;
    use gb_dataset::rng::rng_from_seed;
    use rand::Rng;

    /// Inserted balls: `(center, radius)`.
    type Balls = Vec<(Vec<f64>, f64)>;

    fn random_balls(n: usize, d: usize, seed: u64) -> Balls {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| {
                let c: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..10.0)).collect();
                let r = rng.gen_range(0.0..0.6);
                (c, r)
            })
            .collect()
    }

    /// The insertion sequences the brute checks run over: uniform centers;
    /// centers sorted along axis 0 (what the canonical sweep inserts from a
    /// sorted CSV); 40 distinct centers repeated with varied radii; every
    /// other radius zero; and 2,000 balls, so the index crosses several
    /// merges (every other set crosses at least three).
    fn ball_sets(d: usize, seed: u64) -> Vec<(&'static str, Balls)> {
        let mut sorted = random_balls(700, d, seed + 1);
        sorted.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
        let distinct = random_balls(40, d, seed + 2);
        let duplicates = (0..600)
            .map(|i| {
                let (c, r) = &distinct[i % distinct.len()];
                (c.clone(), r * (i % 3) as f64)
            })
            .collect();
        let zero_radii = random_balls(600, d, seed + 3)
            .into_iter()
            .enumerate()
            .map(|(i, (c, r))| (c, if i % 2 == 0 { 0.0 } else { r }))
            .collect();
        vec![
            ("uniform", random_balls(500, d, seed)),
            ("sorted", sorted),
            ("duplicates", duplicates),
            ("zero radii", zero_radii),
            ("large", random_balls(2_000, d, seed + 4)),
        ]
    }

    #[test]
    fn conflict_radius_matches_brute_min() {
        for (metric, dist) in [
            (Metric::SqEuclidean, euclidean as fn(&[f64], &[f64]) -> f64),
            (Metric::Manhattan, manhattan),
        ] {
            for (name, balls) in ball_sets(3, 1) {
                let mut idx = BallConflictIndex::new_with(3, metric);
                let mut rng = rng_from_seed(2);
                let mut visits = 0;
                for (i, (c, r)) in balls.iter().enumerate() {
                    // Every third query sits on an inserted center: zero gaps.
                    let q: Vec<f64> = if i % 3 == 0 && i > 0 {
                        balls[rng.gen_range(0..i)].0.clone()
                    } else {
                        (0..3).map(|_| rng.gen_range(0.0..10.0)).collect()
                    };
                    let brute = balls[..i]
                        .iter()
                        .map(|(bc, br)| (dist(bc, &q) - br).max(0.0))
                        .fold(f64::INFINITY, f64::min);
                    let got = idx.conflict_radius(&q, &mut visits);
                    assert_eq!(got.to_bits(), brute.to_bits(), "{metric}/{name} ball {i}");
                    idx.push(c, *r);
                }
                assert!(visits > 0, "{metric}/{name}");
            }
        }
    }

    #[test]
    fn overlap_count_matches_brute_scan() {
        for (name, balls) in ball_sets(2, 3) {
            let mut idx = BallConflictIndex::new(2);
            for (i, (c, r)) in balls.iter().enumerate() {
                let brute = balls[..i]
                    .iter()
                    .filter(|(bc, br)| euclidean(bc, c) < br + r - 1e-9)
                    .count();
                assert_eq!(idx.count_overlapping(c, *r, 1e-9), brute, "{name} ball {i}");
                idx.push(c, *r);
            }
        }
    }

    #[test]
    fn trees_follow_the_binary_counter() {
        let mut idx = BallConflictIndex::new(2);
        for (i, (c, r)) in random_balls(3_000, 2, 5).iter().enumerate() {
            idx.push(c, *r);
            let n = i + 1;
            // One tree per set bit of the number of full buffers, largest
            // first, over contiguous runs that end where the buffer starts.
            let full = n / CONFLICT_BUFFER;
            let sizes: Vec<usize> = idx.trees.iter().map(|t| t.end - t.start).collect();
            let expected: Vec<usize> = (0..usize::BITS)
                .rev()
                .map(|bit| 1 << bit)
                .filter(|&b| full & b != 0)
                .map(|b| b * CONFLICT_BUFFER)
                .collect();
            assert_eq!(sizes, expected, "after {n} pushes");
            assert!(idx.trees.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(idx.trees.first().map_or(0, |t| t.start), 0);
            assert_eq!(idx.len() - idx.indexed(), n % CONFLICT_BUFFER);
        }
    }

    #[test]
    fn empty_index_answers() {
        let idx = BallConflictIndex::new(4);
        let mut visits = 0;
        assert_eq!(idx.conflict_radius(&[0.0; 4], &mut visits), f64::INFINITY);
        assert_eq!(visits, 0);
        assert_eq!(idx.count_overlapping(&[0.0; 4], 1.0, 1e-9), 0);
    }
}
