//! GBABS — Granular-Ball-based Approximate Borderline Sampling
//! (Algorithm 2 of the paper).
//!
//! Plain center-to-center distances cannot locate class boundaries (the
//! paper's Fig. 4 counter-example), so GBABS scans every feature dimension
//! instead: ball centers are ordered along the dimension, and every
//! *adjacent* pair of centers with different labels marks both balls as
//! borderline. For each such heterogeneous adjacency the facing extreme
//! samples — the member of the left ball with the largest coordinate and
//! the member of the right ball with the smallest coordinate in that
//! dimension — are the approximate borderline samples. The union over all
//! dimensions (without duplicates) is the sampled set `S ⊆ D`.
//!
//! The walk: for each dimension, the balls are sorted by the decorated key
//! `(center[dim], ball id)` — the workspace's canonical coordinate
//! tie-break, a total order, so the pair sequence is a pure function of
//! the cover, whatever its build history, backend or thread count — and
//! each adjacent pair is compared by label. The key is one integer per
//! ball (`walk_key`): the order bits of `center[dim] + 0.0` above the
//! ball id, so −0.0 and 0.0 tie as they compare. Only the
//! facing-extreme-member selection touches the dataset. A cover whose
//! balls all share one label short-circuits: no heterogeneous adjacency
//! can exist on any dimension.
//!
//! The `p` walks are independent: from 8,192 keys in all
//! (2 × `PAR_WALK_KEYS`) they run in contiguous dimension ranges on the
//! thread pool, each range with its own key buffer and flags. The ranges'
//! flags are OR-merged, and a union does not depend on the split.
//!
//! Total cost is `O(t·q·N + p·m·log m)` with `m` balls — the linearity the
//! paper claims in §IV-C.

use crate::ball::GranularBall;
use crate::rdgbg::{rd_gbg_with_progress, ProgressSink, RdGbgConfig, RdGbgModel};
use gb_dataset::Dataset;
use gb_obs::ProgressEvent;
use std::time::Instant;

/// Result of a GBABS run.
#[derive(Debug, Clone)]
pub struct GbabsResult {
    /// Sorted, de-duplicated row indices of the borderline samples.
    pub sampled_rows: Vec<usize>,
    /// Indices (into `model.balls`) of balls flagged borderline.
    pub borderline_balls: Vec<usize>,
    /// The underlying RD-GBG model.
    pub model: RdGbgModel,
}

impl GbabsResult {
    /// Sampling ratio |S| / |D| as reported in the paper's Fig. 6.
    #[must_use]
    pub fn sampling_ratio(&self, data: &Dataset) -> f64 {
        self.sampled_rows.len() as f64 / data.n_samples().max(1) as f64
    }

    /// Materializes the sampled dataset.
    #[must_use]
    pub fn sampled_dataset(&self, data: &Dataset) -> Dataset {
        data.select(&self.sampled_rows)
    }
}

/// Walk keys (dimensions × balls) per range below which the walks are not
/// split. A split costs a pool hand-off and the host's thread count (~12
/// µs each on a 2-vCPU x86-64 container). There two ranges lost at 2 k
/// keys each (4,096 keys at p = 16: 76 µs in one range, 87 µs in two),
/// won from 4 k keys each (8,192 keys: 175–303 µs → 133–222 µs) and took
/// 48–74% of the one-range time at p = 256 over 512–4,096 balls.
const PAR_WALK_KEYS: usize = 4_096;

/// Detects borderline balls and collects the borderline samples from an
/// existing ball cover. Exposed separately from [`gbabs`] so callers can
/// reuse one RD-GBG model across analyses.
///
/// # Panics
/// When a ball center is not finite.
#[must_use]
pub fn borderline_from_model(data: &Dataset, model: &RdGbgModel) -> (Vec<usize>, Vec<usize>) {
    let keys = data.n_features() * model.balls.len();
    borderline_in(data, model, gb_dataset::par_ranges(keys, PAR_WALK_KEYS))
}

/// [`borderline_from_model`] with the dimensions split into `ranges`
/// contiguous walk ranges (at least one, at most one per dimension).
fn borderline_in(data: &Dataset, model: &RdGbgModel, ranges: usize) -> (Vec<usize>, Vec<usize>) {
    use rayon::prelude::*;
    let m = model.balls.len();
    let p = data.n_features();
    let n = data.n_samples();
    let labels: Vec<u32> = model.balls.iter().map(|b| b.label).collect();
    // Single-label covers (single-class data) have no heterogeneous
    // adjacency on any dimension — skip the p ordered walks entirely.
    let heterogeneous = labels.windows(2).any(|w| w[0] != w[1]);
    let ranges = if heterogeneous {
        ranges.clamp(1, p.max(1))
    } else {
        0
    };
    // Each range gets its own key buffer, which serves all of its walks,
    // and its own flags; all are allocated here, on the calling thread.
    let mut walks: Vec<Walks> = (0..ranges)
        .map(|r| Walks {
            dims: p * r / ranges..p * (r + 1) / ranges,
            keys: Vec::with_capacity(m),
            borderline: vec![false; m],
            sampled: vec![false; n],
        })
        .collect();
    walks
        .par_iter_mut()
        .for_each(|w| w.run(data, model, &labels));
    // OR-merge every range's flags into the last one's.
    let (mut is_borderline, mut sampled) = match walks.pop() {
        Some(last) => (last.borderline, last.sampled),
        None => (vec![false; m], vec![false; n]),
    };
    for w in &walks {
        for (any, &mine) in is_borderline.iter_mut().zip(&w.borderline) {
            *any |= mine;
        }
        for (any, &mine) in sampled.iter_mut().zip(&w.sampled) {
            *any |= mine;
        }
    }
    let set = |flags: &[bool]| -> Vec<usize> { (0..flags.len()).filter(|&i| flags[i]).collect() };
    (set(&sampled), set(&is_borderline))
}

/// One contiguous range of per-dimension walks and the flags it set.
struct Walks {
    dims: std::ops::Range<usize>,
    keys: Vec<u128>,
    /// Per ball: whether it was one side of a heterogeneous adjacency.
    borderline: Vec<bool>,
    /// Per row: whether it was a facing extreme member.
    sampled: Vec<bool>,
}

impl Walks {
    fn run(&mut self, data: &Dataset, model: &RdGbgModel, labels: &[u32]) {
        // Work on locals: the ranges' headers sit side by side in one
        // vector, and writing them from several threads would share
        // cache lines.
        let mut keys = std::mem::take(&mut self.keys);
        let mut borderline = std::mem::take(&mut self.borderline);
        let mut sampled = std::mem::take(&mut self.sampled);
        for dim in self.dims.clone() {
            keys.clear();
            keys.extend(
                (0..)
                    .zip(&model.balls)
                    .map(|(b, ball)| walk_key(ball.center[dim], b)),
            );
            keys.sort_unstable();
            for w in keys.windows(2) {
                let (left, right) = (w[0] as u64 as usize, w[1] as u64 as usize);
                if labels[left] == labels[right] {
                    continue;
                }
                borderline[left] = true;
                borderline[right] = true;
                // Facing extreme samples along this dimension.
                if let Some(row) = model.balls[left].extreme_member(data, dim, true) {
                    sampled[row] = true;
                }
                if let Some(row) = model.balls[right].extreme_member(data, dim, false) {
                    sampled[row] = true;
                }
            }
        }
        (self.borderline, self.sampled) = (borderline, sampled);
    }
}

/// The walk's sort key of ball `id` at coordinate `x`: the order bits of
/// `x + 0.0` (so −0.0 and 0.0 tie) above the id. Keys order as the pairs
/// `(x, id)` do.
///
/// # Panics
/// When `x` is not finite.
fn walk_key(x: f64, id: u64) -> u128 {
    assert!(x.is_finite(), "finite centers");
    let bits = (x + 0.0).to_bits();
    // Negative values order by their flipped magnitude, below every
    // positive one.
    let order = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    u128::from(order) << 64 | u128::from(id)
}

/// Runs the full GBABS pipeline: RD-GBG granulation followed by borderline
/// detection and sampling.
#[must_use]
pub fn gbabs(data: &Dataset, config: &RdGbgConfig) -> GbabsResult {
    gbabs_with_progress(data, config, None)
}

/// [`gbabs`] with an optional progress sink: the sink receives one
/// [`ProgressEvent::Granulate`] per RD-GBG iteration and a final
/// [`ProgressEvent::Borderline`] summary after sampling. The sink only
/// observes — output is bit-identical with and without it.
#[must_use]
pub fn gbabs_with_progress(
    data: &Dataset,
    config: &RdGbgConfig,
    mut progress: Option<ProgressSink<'_>>,
) -> GbabsResult {
    let started = Instant::now();
    // Reborrow through a forwarding closure: `&mut dyn FnMut` is invariant
    // in its pointee, so the sink cannot be lent to rd_gbg and reused
    // afterwards directly.
    let wants_progress = progress.is_some();
    let model = {
        let mut forward = |e: &ProgressEvent| {
            if let Some(sink) = progress.as_mut() {
                sink(e);
            }
        };
        let sink: Option<ProgressSink<'_>> = if wants_progress {
            Some(&mut forward)
        } else {
            None
        };
        rd_gbg_with_progress(data, config, sink)
    };
    let (sampled_rows, borderline_balls) = borderline_from_model(data, &model);
    if let Some(sink) = progress.as_mut() {
        sink(&ProgressEvent::Borderline {
            balls: model.balls.len(),
            borderline: borderline_balls.len(),
            sampled: sampled_rows.len(),
            elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        });
    }
    GbabsResult {
        sampled_rows,
        borderline_balls,
        model,
    }
}

/// Helper used in tests and docs: borderline detection over a hand-built
/// ball list (bypassing RD-GBG).
#[must_use]
pub fn borderline_over_balls(data: &Dataset, balls: Vec<GranularBall>) -> (Vec<usize>, Vec<usize>) {
    let model = RdGbgModel {
        balls,
        noise: Vec::new(),
        orphan_count: 0,
        iterations: 0,
        metric: gb_dataset::distance::Metric::SqEuclidean,
    };
    borderline_from_model(data, &model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    /// 1-D layout: class 0 on [0,1], class 1 on [3,4], class 0 on [6,7].
    /// Middle ball is borderline toward both sides.
    fn three_ball_line() -> (Dataset, Vec<GranularBall>) {
        let xs = [0.0, 0.5, 1.0, 3.0, 3.5, 4.0, 6.0, 6.5, 7.0];
        let labels = [0, 0, 0, 1, 1, 1, 0, 0, 0];
        let data = Dataset::from_parts(xs.to_vec(), labels.to_vec(), 1, 2);
        let mk = |center: f64, rows: &[usize], label: u32| GranularBall {
            center: vec![center],
            radius: 0.5,
            label,
            members: rows.to_vec(),
            center_row: Some(rows[0]),
            purity: 1.0,
        };
        let balls = vec![
            mk(0.5, &[0, 1, 2], 0),
            mk(3.5, &[3, 4, 5], 1),
            mk(6.5, &[6, 7, 8], 0),
        ];
        (data, balls)
    }

    #[test]
    fn facing_extremes_are_sampled() {
        let (data, balls) = three_ball_line();
        let (rows, borderline) = borderline_over_balls(&data, balls);
        // adjacencies: (b0,b1) het -> rows {2 (max of b0), 3 (min of b1)};
        // (b1,b2) het -> rows {5, 6}
        assert_eq!(rows, vec![2, 3, 5, 6]);
        assert_eq!(borderline, vec![0, 1, 2]);
    }

    #[test]
    fn homogeneous_adjacency_is_ignored() {
        let (data, mut balls) = three_ball_line();
        balls[1].label = 0; // all same class now
        let (rows, borderline) = borderline_over_balls(&data, balls);
        assert!(rows.is_empty());
        assert!(borderline.is_empty());
    }

    #[test]
    fn interior_balls_are_not_borderline() {
        // 5 balls: 0 0 | 1 | 0 0 along a line — the outermost class-0 balls
        // are NOT adjacent to the class-1 ball.
        let xs: Vec<f64> = vec![0.0, 2.0, 4.0, 6.0, 8.0];
        let labels = vec![0, 0, 1, 0, 0];
        let data = Dataset::from_parts(xs.clone(), labels, 1, 2);
        let balls: Vec<GranularBall> = (0..5)
            .map(|i| GranularBall {
                center: vec![xs[i]],
                radius: 0.4,
                label: data.label(i),
                members: vec![i],
                center_row: Some(i),
                purity: 1.0,
            })
            .collect();
        let (_, borderline) = borderline_over_balls(&data, balls);
        assert_eq!(borderline, vec![1, 2, 3]);
    }

    #[test]
    fn walks_are_exact_however_the_dimensions_split() {
        // A cover from a real granulation, plus one dimension whose
        // centers mix -0.0 and 0.0 (they must tie, ordered by ball id).
        let data = DatasetId::S6.generate(0.1, 5);
        let mut model = gbabs(&data, &RdGbgConfig::default()).model;
        for (b, ball) in model.balls.iter_mut().enumerate() {
            ball.center[1] = [0.0, -0.0, 1.0, -1.0][b % 4];
        }
        let serial = borderline_in(&data, &model, 1);
        assert!(!serial.0.is_empty() && !serial.1.is_empty());
        for ranges in [2, 3, 8] {
            assert_eq!(
                borderline_in(&data, &model, ranges),
                serial,
                "{ranges} ranges"
            );
        }
    }

    #[test]
    fn signed_zero_centers_tie_and_order_by_ball_id() {
        assert_eq!(walk_key(-0.0, 3), walk_key(0.0, 3));
        let xs = [-1e300, -1.0, -5e-324, 0.0, 5e-324, 1.0, 1e300, f64::MAX];
        for w in xs.windows(2) {
            assert!(walk_key(w[0], 9) < walk_key(w[1], 0), "{} < {}", w[0], w[1]);
        }
        assert!(walk_key(-0.0, 1) < walk_key(0.0, 2));
        // Balls 0 and 1 both sit at zero, one of them at -0.0: ball 0
        // still comes first, so its neighbour on the right is ball 1.
        let data = Dataset::from_parts(vec![0.0, 0.0, 2.0], vec![0, 1, 0], 1, 2);
        let ball = |center: f64, row: usize, label: u32| GranularBall {
            center: vec![center],
            radius: 0.0,
            label,
            members: vec![row],
            center_row: Some(row),
            purity: 1.0,
        };
        let (rows, balls) = borderline_over_balls(
            &data,
            vec![ball(0.0, 0, 0), ball(-0.0, 1, 1), ball(2.0, 2, 0)],
        );
        assert_eq!((rows, balls), (vec![0, 1, 2], vec![0, 1, 2]));
    }

    #[test]
    fn non_finite_centers_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (data, mut balls) = three_ball_line();
            balls[1].center[0] = bad;
            let result = std::panic::catch_unwind(|| borderline_over_balls(&data, balls));
            assert!(result.is_err(), "{bad} center accepted");
        }
    }

    #[test]
    fn sampled_rows_are_unique_subset() {
        let data = DatasetId::S5.generate(0.05, 4);
        let res = gbabs(&data, &RdGbgConfig::default());
        let mut sorted = res.sampled_rows.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), res.sampled_rows.len(), "duplicates in S");
        assert!(res.sampled_rows.iter().all(|&r| r < data.n_samples()));
        assert!(res.sampling_ratio(&data) > 0.0 && res.sampling_ratio(&data) <= 1.0);
    }

    #[test]
    fn sampled_dataset_preserves_schema() {
        let data = DatasetId::S2.generate(0.2, 4);
        let res = gbabs(&data, &RdGbgConfig::default());
        let s = res.sampled_dataset(&data);
        assert_eq!(s.n_features(), data.n_features());
        assert_eq!(s.n_classes(), data.n_classes());
        assert_eq!(s.n_samples(), res.sampled_rows.len());
    }

    #[test]
    fn noise_rows_never_sampled() {
        use gb_dataset::noise::inject_class_noise;
        let clean = DatasetId::S5.generate(0.05, 8);
        let (noisy, _) = inject_class_noise(&clean, 0.2, 3);
        let res = gbabs(&noisy, &RdGbgConfig::default());
        for &r in &res.model.noise {
            assert!(
                !res.sampled_rows.contains(&r),
                "detected-noise row {r} leaked into S"
            );
        }
    }

    #[test]
    fn compression_on_simple_boundary() {
        // banana-like data has a simple curved boundary: GBABS should keep
        // well under the full dataset (paper reports ~29% at full scale).
        let data = DatasetId::S5.generate(0.2, 6);
        let res = gbabs(&data, &RdGbgConfig::default());
        let ratio = res.sampling_ratio(&data);
        assert!(ratio < 0.8, "expected compression, ratio = {ratio}");
    }

    #[test]
    fn multiclass_borderline_detection() {
        let data = DatasetId::S6.generate(0.1, 5);
        let res = gbabs(&data, &RdGbgConfig::default());
        // every class with >0 samples should contribute borderline samples
        // in a multi-class blob layout
        let s = res.sampled_dataset(&data);
        let present = s.class_counts().iter().filter(|&&c| c > 0).count();
        assert!(present >= 3, "only {present} classes sampled");
    }
}
