//! Purity-threshold k-division granular-ball generation.
//!
//! This is the *classic* GBG used by GGBS/IGBS (paper §III-B, after Xia et
//! al. \[23\]/\[27\]), reimplemented as the baseline substrate: start from one
//! ball holding the whole dataset; while a ball's purity is below the
//! threshold **and** it holds more than `2·p` samples, split it by
//! k-division (one centroid per class present, Lloyd reassignment); finish
//! with Eq.-1 balls — centroid center, *mean-distance* radius, majority
//! label. Unlike RD-GBG these balls may overlap and may leave members
//! outside their radius: exactly the deficiencies the paper's method fixes
//! (and our ablation benches measure).

use gb_dataset::distance::euclidean;
use gb_dataset::index::assign_to_nearest;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gbabs::GranularBall;
use rand::Rng;

/// Configuration for the k-division GBG.
#[derive(Debug, Clone, Copy)]
pub struct KDivConfig {
    /// Purity threshold below which a (large-enough) ball keeps splitting.
    /// GGBS sweeps this; 1.0 demands pure balls.
    pub purity_threshold: f64,
    /// Lloyd iterations per split.
    pub lloyd_iters: usize,
    /// Seed (used only to jitter degenerate splits).
    pub seed: u64,
}

impl Default for KDivConfig {
    fn default() -> Self {
        Self {
            purity_threshold: 1.0,
            lloyd_iters: 3,
            seed: 0,
        }
    }
}

/// Scratch for the batched Lloyd steps: the gathered row coordinates of the
/// ball being split (row-major), reused across iterations.
pub(crate) struct LloydScratch {
    pub(crate) points: Vec<f64>,
    pub(crate) assign: Vec<u32>,
}

impl LloydScratch {
    pub(crate) fn new() -> Self {
        Self {
            points: Vec::new(),
            assign: Vec::new(),
        }
    }

    /// Gathers `rows` of `data` into the contiguous points block.
    pub(crate) fn gather(&mut self, data: &Dataset, rows: &[usize]) {
        self.points.clear();
        for &r in rows {
            self.points.extend_from_slice(data.row(r));
        }
        self.assign.clear();
        self.assign.resize(rows.len(), 0);
    }
}

/// Builds an Eq.-1 ball over `rows`: centroid center, mean-distance radius,
/// majority label, measured purity.
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
        .map(|&r| euclidean(data.row(r), &center))
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

/// Splits `rows` by k-division: one *random member per class present* as
/// the initial center (the init used by Xia et al.'s k-division), then
/// `lloyd_iters` rounds of nearest-centroid reassignment through the
/// batched [`assign_to_nearest`] query (ties toward the smaller centroid
/// index, exactly like the per-pair loop it replaced). Returns the
/// non-empty children (possibly fewer than k).
fn k_division(
    data: &Dataset,
    rows: &[usize],
    lloyd_iters: usize,
    rng: &mut impl Rng,
    scratch: &mut LloydScratch,
) -> Vec<Vec<usize>> {
    let p = data.n_features();
    // classes present
    let mut present: Vec<u32> = rows.iter().map(|&r| data.label(r)).collect();
    present.sort_unstable();
    present.dedup();
    let k = present.len();
    if k < 2 {
        return vec![rows.to_vec()];
    }
    // initial centers: one random sample of each class, flattened row-major
    // for the batched assignment kernel
    let mut centroids = vec![0.0f64; k * p];
    let mut counts = vec![0usize; k];
    for (ci, &class) in present.iter().enumerate() {
        let members: Vec<usize> = rows
            .iter()
            .copied()
            .filter(|&r| data.label(r) == class)
            .collect();
        let pick = members[rng.gen_range(0..members.len())];
        centroids[ci * p..(ci + 1) * p].copy_from_slice(data.row(pick));
    }
    // If two initial centers coincide exactly, jitter one of them.
    for ci in 1..k {
        if centroids[ci * p..(ci + 1) * p] == centroids[..p] {
            let j = rng.gen_range(0..p);
            centroids[ci * p + j] += 1e-6 * (ci as f64);
        }
    }
    scratch.gather(data, rows);
    for _ in 0..lloyd_iters.max(1) {
        // assignment step: one batched sweep over the gathered block
        assign_to_nearest(&scratch.points, &centroids, p, &mut scratch.assign);
        // update step
        centroids.fill(0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (pos, &r) in rows.iter().enumerate() {
            let ci = scratch.assign[pos] as usize;
            counts[ci] += 1;
            for (s, &v) in centroids[ci * p..(ci + 1) * p].iter_mut().zip(data.row(r)) {
                *s += v;
            }
        }
        for (ci, &n) in counts.iter().enumerate() {
            if n > 0 {
                for v in &mut centroids[ci * p..(ci + 1) * p] {
                    *v /= n as f64;
                }
            }
        }
    }
    let mut children = vec![Vec::new(); k];
    for (pos, &r) in rows.iter().enumerate() {
        children[scratch.assign[pos] as usize].push(r);
    }
    children.retain(|c| !c.is_empty());
    children
}

/// Runs purity-threshold GBG over `data`. A ball is *small* when it holds at
/// most `2·p` samples; small balls are never split regardless of purity
/// (the behaviour the paper criticizes in §III-B).
#[must_use]
pub fn k_division_gbg(data: &Dataset, config: &KDivConfig) -> Vec<GranularBall> {
    assert!(data.n_samples() > 0, "cannot granulate an empty dataset");
    let two_p = 2 * data.n_features();
    let mut rng = rng_from_seed(config.seed);
    let mut scratch = LloydScratch::new();
    let mut queue: Vec<Vec<usize>> = vec![(0..data.n_samples()).collect()];
    let mut done: Vec<GranularBall> = Vec::new();
    while let Some(rows) = queue.pop() {
        let ball = make_ball(data, rows);
        if ball.purity < config.purity_threshold && ball.len() > two_p {
            let children = k_division(
                data,
                &ball.members,
                config.lloyd_iters,
                &mut rng,
                &mut scratch,
            );
            if children.len() < 2 {
                done.push(ball); // degenerate split: keep as-is
            } else {
                queue.extend(children);
            }
        } else {
            done.push(ball);
        }
    }
    done
}

/// Whether a ball is "large" in the GGBS sense (> 2·p members).
#[must_use]
pub fn is_large(ball: &GranularBall, n_features: usize) -> bool {
    ball.len() > 2 * n_features
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;
    use gbabs::diagnostics::count_overlaps;

    #[test]
    fn covers_every_row_exactly_once() {
        let data = DatasetId::S5.generate(0.05, 1);
        let balls = k_division_gbg(&data, &KDivConfig::default());
        let mut seen = vec![0usize; data.n_samples()];
        for b in &balls {
            for &m in &b.members {
                seen[m] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn purity_reached_or_ball_is_small() {
        let data = DatasetId::S2.generate(0.2, 2);
        let cfg = KDivConfig {
            purity_threshold: 0.9,
            ..Default::default()
        };
        let balls = k_division_gbg(&data, &cfg);
        let two_p = 2 * data.n_features();
        for b in &balls {
            assert!(
                b.purity >= 0.9 || b.len() <= two_p,
                "ball with purity {} and {} members",
                b.purity,
                b.len()
            );
        }
    }

    #[test]
    fn classic_gbg_overlaps_on_interleaved_data() {
        // The structural deficiency RD-GBG removes: on heavily overlapping
        // high-dimensional data (the S7 / coil2000 surrogate) the Eq.-1
        // balls overlap.
        let data = DatasetId::S7.generate(0.04, 3);
        let balls = k_division_gbg(&data, &KDivConfig::default());
        assert!(
            count_overlaps(&balls, 1e-9) > 0,
            "expected classic GBG to produce overlapping balls"
        );
    }

    #[test]
    fn mean_radius_leaves_members_outside() {
        // Eq. 1 radius is the *mean* distance, so some members fall outside
        // the sphere — the other deficiency the paper points out.
        let data = DatasetId::S5.generate(0.05, 4);
        let balls = k_division_gbg(&data, &KDivConfig::default());
        let any_outside = balls.iter().any(|b| {
            b.members
                .iter()
                .any(|&m| !b.contains_point(data.row(m), 1e-9))
        });
        assert!(any_outside, "expected mean-radius balls to leak members");
    }

    #[test]
    fn single_class_dataset_one_ball() {
        let feats: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let data = Dataset::from_parts(feats, vec![0; 40], 1, 1);
        let balls = k_division_gbg(&data, &KDivConfig::default());
        assert_eq!(balls.len(), 1);
        assert_eq!(balls[0].purity, 1.0);
    }

    #[test]
    fn identical_points_terminate() {
        // all rows identical but labels mixed: k-division cannot separate;
        // must not loop forever
        let data = Dataset::from_parts(
            vec![1.0; 40],
            (0..40).map(|i| (i % 2) as u32).collect(),
            1,
            2,
        );
        let balls = k_division_gbg(&data, &KDivConfig::default());
        let total: usize = balls.iter().map(|b| b.len()).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn is_large_threshold() {
        let data = DatasetId::S5.generate(0.02, 0);
        let balls = k_division_gbg(&data, &KDivConfig::default());
        for b in &balls {
            assert_eq!(is_large(b, data.n_features()), b.len() > 4);
        }
    }
}
