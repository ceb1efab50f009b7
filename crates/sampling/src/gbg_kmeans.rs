//! Original 2-means granular-ball generation (Xia et al. 2019, ref \[22\]).
//!
//! The first GBG method in the literature and the root of the family tree
//! the paper's §III-A surveys: start from one ball holding the whole
//! dataset; while a ball's purity is below the threshold, split it into two
//! children by plain (class-agnostic) 2-means; finish with Eq.-1 balls —
//! centroid center, mean-distance radius, majority label. Differences from
//! the k-division GBG in [`crate::gbg_kdiv`]: the split arity is always 2
//! and the initial centers are random samples rather than one per class, so
//! deep recursions are needed on multi-class data. Like every Eq.-1
//! generator it produces overlapping balls whose members may lie outside
//! their radius — the deficiencies RD-GBG removes, quantified by the
//! `granulation` ablation.

use crate::gbg_kdiv::LloydScratch;
use gb_dataset::index::assign_to_nearest;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::GranularBall;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for the 2-means GBG.
#[derive(Debug, Clone, Copy)]
pub struct KMeansGbgConfig {
    /// Purity threshold below which a ball keeps splitting (paper sweeps
    /// this for the classic methods; 1.0 demands pure balls).
    pub purity_threshold: f64,
    /// Minimum members for a ball to be split further. The original
    /// algorithm never splits singletons; 2 reproduces that.
    pub min_split_size: usize,
    /// Lloyd iterations per split.
    pub lloyd_iters: usize,
    /// Seed for the random initial centers.
    pub seed: u64,
}

impl Default for KMeansGbgConfig {
    fn default() -> Self {
        Self {
            purity_threshold: 1.0,
            min_split_size: 2,
            lloyd_iters: 3,
            seed: 0,
        }
    }
}

/// Builds an Eq.-1 ball over `rows` (centroid center, mean-distance radius,
/// majority label). Shared shape with the k-division generator but kept
/// local so each module documents its own paper lineage.
fn make_ball(data: &Dataset, rows: Vec<usize>) -> GranularBall {
    debug_assert!(!rows.is_empty());
    let p = data.n_features();
    let mut center = vec![0.0; p];
    for &r in &rows {
        for (j, &v) in data.row(r).iter().enumerate() {
            center[j] += v;
        }
    }
    for c in center.iter_mut() {
        *c /= rows.len() as f64;
    }
    let radius = rows
        .iter()
        .map(|&r| gb_dataset::distance::euclidean(data.row(r), &center))
        .sum::<f64>()
        / rows.len() as f64;
    let mut counts = vec![0usize; data.n_classes()];
    for &r in &rows {
        counts[data.label(r) as usize] += 1;
    }
    let (label, label_count) = counts
        .iter()
        .enumerate()
        .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
        .map(|(i, &c)| (i as u32, c))
        .expect("non-empty class counts");
    let purity = label_count as f64 / rows.len() as f64;
    GranularBall {
        center,
        radius,
        label,
        members: rows,
        center_row: None,
        purity,
    }
}

/// One 2-means split of `rows`, each assignment step a batched
/// [`assign_to_nearest`] sweep (ties toward side 0, exactly like the
/// `d1 < d0` comparison it replaced). Returns `None` when the rows cannot
/// be separated (all coordinates identical), which ends recursion for that
/// ball.
fn two_means(
    data: &Dataset,
    rows: &[usize],
    lloyd_iters: usize,
    rng: &mut impl Rng,
    scratch: &mut LloydScratch,
) -> Option<(Vec<usize>, Vec<usize>)> {
    debug_assert!(rows.len() >= 2);
    let p = data.n_features();
    // Random distinct-sample init, as in the original method.
    let mut picks: Vec<usize> = rows.to_vec();
    picks.shuffle(rng);
    let a = picks[0];
    let b = picks
        .iter()
        .copied()
        .find(|&r| data.row(r) != data.row(a))?;
    let mut init = Vec::with_capacity(2 * p);
    init.extend_from_slice(data.row(a));
    init.extend_from_slice(data.row(b));
    let mut centroids = init.clone();
    scratch.gather(data, rows);
    for _ in 0..lloyd_iters.max(1) {
        assign_to_nearest(&scratch.points, &centroids, p, &mut scratch.assign);
        let mut sums = vec![0.0f64; 2 * p];
        let mut counts = [0usize; 2];
        for (pos, &r) in rows.iter().enumerate() {
            let side = scratch.assign[pos] as usize;
            counts[side] += 1;
            for (s, &v) in sums[side * p..(side + 1) * p].iter_mut().zip(data.row(r)) {
                *s += v;
            }
        }
        for side in 0..2 {
            if counts[side] > 0 {
                for (c, s) in centroids[side * p..(side + 1) * p]
                    .iter_mut()
                    .zip(&sums[side * p..(side + 1) * p])
                {
                    *c = s / counts[side] as f64;
                }
            }
        }
    }
    let partition = |assign: &[u32]| {
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (pos, &r) in rows.iter().enumerate() {
            if assign[pos] == 0 {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        (left, right)
    };
    let (left, right) = partition(&scratch.assign);
    if !left.is_empty() && !right.is_empty() {
        return Some((left, right));
    }
    // Lloyd collapsed one side. Fall back to assignment by the two distinct
    // init samples: `a` and `b` each bind to their own side, so both sides
    // are guaranteed non-empty and recursion always makes progress.
    assign_to_nearest(&scratch.points, &init, p, &mut scratch.assign);
    Some(partition(&scratch.assign))
}

/// Runs the original 2-means GBG over `data`.
#[must_use]
pub fn kmeans_gbg(data: &Dataset, config: &KMeansGbgConfig) -> Vec<GranularBall> {
    assert!(data.n_samples() > 0, "cannot granulate an empty dataset");
    let mut rng = rng_from_seed(config.seed);
    let mut scratch = LloydScratch::new();
    let mut queue: Vec<Vec<usize>> = vec![(0..data.n_samples()).collect()];
    let mut done: Vec<GranularBall> = Vec::new();
    while let Some(rows) = queue.pop() {
        let ball = make_ball(data, rows);
        let splittable =
            ball.purity < config.purity_threshold && ball.len() >= config.min_split_size.max(2);
        if splittable {
            match two_means(
                data,
                &ball.members,
                config.lloyd_iters,
                &mut rng,
                &mut scratch,
            ) {
                Some((left, right)) => {
                    queue.push(left);
                    queue.push(right);
                }
                None => done.push(ball), // identical coordinates: cannot split
            }
        } else {
            done.push(ball);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn covers_every_row_exactly_once() {
        let data = DatasetId::S5.generate(0.05, 1);
        let balls = kmeans_gbg(&data, &KMeansGbgConfig::default());
        let mut seen = vec![0usize; data.n_samples()];
        for b in &balls {
            for &m in &b.members {
                seen[m] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn purity_threshold_respected_when_separable() {
        let data = DatasetId::S5.generate(0.05, 2);
        let cfg = KMeansGbgConfig {
            purity_threshold: 0.95,
            ..Default::default()
        };
        for b in kmeans_gbg(&data, &cfg) {
            assert!(
                b.purity >= 0.95 || b.len() < 2 || all_rows_identical(&data, &b.members),
                "impure splittable ball survived: purity {} size {}",
                b.purity,
                b.len()
            );
        }
    }

    fn all_rows_identical(data: &Dataset, rows: &[usize]) -> bool {
        rows.windows(2).all(|w| data.row(w[0]) == data.row(w[1]))
    }

    #[test]
    fn produces_more_balls_than_kdiv_on_multiclass() {
        // Binary splits need deeper recursion on a 5-class dataset than the
        // one-center-per-class k-division, typically yielding at least as
        // many balls.
        let data = DatasetId::S6.generate(0.05, 1);
        let km = kmeans_gbg(&data, &KMeansGbgConfig::default());
        let kd = crate::gbg_kdiv::k_division_gbg(&data, &crate::gbg_kdiv::KDivConfig::default());
        assert!(
            km.len() + 5 >= kd.len(),
            "2-means produced {} balls vs k-division {}",
            km.len(),
            kd.len()
        );
    }

    #[test]
    fn identical_points_terminate() {
        let data = Dataset::from_parts(
            vec![1.0; 40],
            (0..40).map(|i| (i % 2) as u32).collect(),
            1,
            2,
        );
        let balls = kmeans_gbg(&data, &KMeansGbgConfig::default());
        let total: usize = balls.iter().map(GranularBall::len).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn single_sample_dataset() {
        let data = Dataset::from_parts(vec![3.0], vec![0], 1, 1);
        let balls = kmeans_gbg(&data, &KMeansGbgConfig::default());
        assert_eq!(balls.len(), 1);
        assert_eq!(balls[0].radius, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = DatasetId::S2.generate(0.1, 1);
        let a = kmeans_gbg(&data, &KMeansGbgConfig::default());
        let b = kmeans_gbg(&data, &KMeansGbgConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn relaxed_purity_means_fewer_balls() {
        let data = DatasetId::S2.generate(0.2, 3);
        let strict = kmeans_gbg(&data, &KMeansGbgConfig::default());
        let relaxed = kmeans_gbg(
            &data,
            &KMeansGbgConfig {
                purity_threshold: 0.7,
                ..Default::default()
            },
        );
        assert!(relaxed.len() <= strict.len());
    }
}
