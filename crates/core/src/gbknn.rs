//! Granular-ball k-nearest-neighbour classifier (GB-kNN).
//!
//! The original granular-ball classifier of Xia et al. \[22\] (the paper's
//! §III-A family): instead of measuring distances to *samples*, a query is
//! assigned the label of the granular ball whose **surface** is nearest,
//! `argmin_i (‖x − c_i‖ − r_i)`. With RD-GBG covers the balls are pure and
//! non-overlapping, so the rule is well defined everywhere.
//!
//! Included here as (a) a reference GBC-family learner, and (b) the
//! substrate for the ablation study comparing "sample on balls, train a
//! classic classifier" (GBABS) against "classify directly with balls".

use crate::rdgbg::{rd_gbg, RdGbgConfig, RdGbgModel};
use gb_dataset::distance::Metric;
use gb_dataset::Dataset;

/// Queries per blocked many-to-many kernel call in [`GbKnn::predict_batch`].
/// Each center-matrix block is loaded once and streamed against the whole
/// query tile (kernel contract v2's register-blocked micro-kernel).
const PREDICT_TILE: usize = 16;

/// How a query's distance to a ball is measured.
///
/// The GBC literature uses both: surface distance (`‖x − c‖ − r`) is the
/// harmonic rule of Xia et al. \[22\] that favours large balls; center
/// distance (`‖x − c‖`) ignores the radius and behaves like plain kNN on
/// the center set. The ablation study compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceRule {
    /// Distance to the ball surface, negative inside (classic GBC rule).
    #[default]
    Surface,
    /// Distance to the ball center (radius-blind).
    Center,
}

/// GB-kNN configuration.
#[derive(Debug, Clone, Copy)]
pub struct GbKnnConfig {
    /// Number of nearest balls that vote (k = 1 is the classic GBC rule).
    pub k: usize,
    /// Distance rule for ranking balls.
    pub rule: DistanceRule,
    /// RD-GBG parameters for the granulation stage.
    pub rdgbg: RdGbgConfig,
}

impl Default for GbKnnConfig {
    fn default() -> Self {
        Self {
            k: 1,
            rule: DistanceRule::Surface,
            rdgbg: RdGbgConfig::default(),
        }
    }
}

/// A fitted GB-kNN model.
///
/// The cover is held flat — one row-major center matrix plus a radius and
/// a label per ball — because prediction reads nothing else: no member
/// lists, and one contiguous scan per query.
pub struct GbKnn {
    /// Ball centers flattened row-major (`n_balls × n_features`) so the
    /// per-query center scan runs through the batched SIMD kernel. Cosine
    /// models hold normalized centers (RD-GBG granulates cosine covers in
    /// normalized space), so no re-preparation happens here.
    centers: Vec<f64>,
    /// Ball radii, indexed like the center rows.
    radii: Vec<f64>,
    /// Ball labels, indexed like the center rows.
    labels: Vec<u32>,
    n_features: usize,
    n_classes: usize,
    k: usize,
    rule: DistanceRule,
    /// Metric the cover was granulated under; queries are measured — and
    /// for cosine, normalized — the same way.
    metric: Metric,
}

impl GbKnn {
    /// Granulates `train` with RD-GBG and keeps the ball cover.
    ///
    /// # Panics
    /// Panics if `k == 0` or the training set is empty.
    #[must_use]
    pub fn fit(train: &Dataset, config: &GbKnnConfig) -> Self {
        assert!(config.k > 0, "k must be positive");
        let model = rd_gbg(train, &config.rdgbg);
        let mut clf = Self::from_model(&model, train.n_classes(), config.k);
        clf.rule = config.rule;
        clf
    }

    /// Builds the classifier from an existing RD-GBG model (lets callers
    /// share one granulation between sampling and classification). Uses the
    /// default [`DistanceRule::Surface`].
    #[must_use]
    pub fn from_model(model: &RdGbgModel, n_classes: usize, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(!model.balls.is_empty(), "empty ball cover");
        let p = model.balls[0].center.len();
        let mut centers = Vec::with_capacity(model.balls.len() * p);
        for b in &model.balls {
            assert_eq!(b.center.len(), p, "ragged ball centers");
            centers.extend_from_slice(&b.center);
        }
        Self {
            centers,
            radii: model.balls.iter().map(|b| b.radius).collect(),
            labels: model.balls.iter().map(|b| b.label).collect(),
            n_features: p,
            n_classes,
            k,
            rule: DistanceRule::Surface,
            metric: model.metric,
        }
    }

    /// Number of balls backing the model.
    #[must_use]
    pub fn n_balls(&self) -> usize {
        self.radii.len()
    }

    /// Number of classes the model votes over.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature-space dimensionality of the ball centers.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of nearest balls that vote.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured distance rule.
    #[must_use]
    pub fn rule(&self) -> DistanceRule {
        self.rule
    }

    /// The metric queries are measured under (inherited from the cover).
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Overrides the distance rule (for callers building via
    /// [`Self::from_model`], which defaults to [`DistanceRule::Surface`]).
    pub fn set_rule(&mut self, rule: DistanceRule) {
        self.rule = rule;
    }

    /// Kernel-space distances (squared Euclidean / L1 / chord²) from a
    /// *prepared* query to every ball center: one batched kernel call over
    /// the flattened center matrix.
    fn kernel_distances(&self, prepared_row: &[f64]) -> Vec<f64> {
        let mut sq = vec![0.0f64; self.n_balls()];
        self.metric
            .one_to_many(prepared_row, &self.centers, &mut sq);
        sq
    }

    /// Votes over the `k` rule-nearest balls given kernel-space distances
    /// to every center (ties toward the smaller label). Converts to rank
    /// space, applies the distance rule (surface distance is signed:
    /// negative inside the ball), and majority-votes. Every prediction
    /// path funnels through this function on kernel values that are
    /// bit-identical whether they came from the one-to-many kernel or the
    /// blocked many-to-many kernel (contract v2), so `predict_row`,
    /// `predict`, and `predict_batch` are mutually bit-identical for any
    /// kernel tier.
    ///
    /// One pass keeps the `k` best balls ordered by `(distance, ball
    /// index)`. The scan visits balls in index order, so a newcomer
    /// displaces an entry only when strictly closer — equal distances keep
    /// the earlier ball. A NaN distance panics once compared (`"finite
    /// distances"`): it has no place in the order.
    fn vote(&self, kernel: &[f64]) -> u32 {
        let closer = |a: f64, b: f64| a.partial_cmp(&b).expect("finite distances").is_lt();
        let k = self.k.min(kernel.len());
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k);
        for (i, &d_kernel) in kernel.iter().enumerate() {
            let center_dist = self.metric.rank_of(d_kernel);
            let d = match self.rule {
                DistanceRule::Surface => center_dist - self.radii[i],
                DistanceRule::Center => center_dist,
            };
            if best.len() == k {
                if !closer(d, best[k - 1].0) {
                    continue;
                }
                best.pop();
            }
            let at = best.partition_point(|&(b, _)| !closer(d, b));
            best.insert(at, (d, i));
        }
        let mut counts = vec![0usize; self.n_classes];
        for &(_, i) in &best {
            counts[self.labels[i] as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Predicts the label of one feature row by majority vote among the `k`
    /// nearest balls (ties toward the smaller label).
    #[must_use]
    pub fn predict_row(&self, row: &[f64]) -> u32 {
        let prepared = self.metric.prepare_query(row);
        self.vote(&self.kernel_distances(&prepared))
    }

    /// Predicts every row of `data`. Rows are scored in parallel — each
    /// prediction is independent, and results are returned in row order, so
    /// the output is identical to the sequential loop.
    #[must_use]
    pub fn predict(&self, data: &Dataset) -> Vec<u32> {
        self.predict_batch(data.features(), data.n_features())
    }

    /// Predicts every row of a raw row-major feature buffer, in parallel
    /// and in row order — the predictor-reuse entry point for callers (like
    /// `gb-serve`'s `/predict`) that hold query rows without building a
    /// [`Dataset`]. Queries tile in groups of `PREDICT_TILE` (16)
    /// through the register-blocked many-to-many kernel, so the center
    /// matrix streams once per tile instead of once per row. The blocked
    /// kernel is bit-identical to repeated one-to-many calls (contract
    /// v2), so the output is bit-identical to calling
    /// [`Self::predict_row`] on each row sequentially.
    ///
    /// # Panics
    /// Panics if `n_features` does not match the model's dimensionality or
    /// `features.len()` is not a multiple of it.
    #[must_use]
    pub fn predict_batch(&self, features: &[f64], n_features: usize) -> Vec<u32> {
        use rayon::prelude::*;
        assert_eq!(
            n_features,
            self.n_features(),
            "query dimensionality must match the ball cover"
        );
        assert_eq!(
            features.len() % n_features,
            0,
            "feature buffer must be a whole number of rows"
        );
        let n = features.len() / n_features;
        let nb = self.n_balls();
        let tiles: Vec<Vec<u32>> = (0..n.div_ceil(PREDICT_TILE))
            .into_par_iter()
            .map(|t| {
                let lo = t * PREDICT_TILE;
                let hi = (lo + PREDICT_TILE).min(n);
                let nq = hi - lo;
                let raw = &features[lo * n_features..hi * n_features];
                // Cosine prepares (normalizes) the query tile; the other
                // metrics measure the rows as-is.
                let prepared;
                let tile: &[f64] = if self.metric.normalizes() {
                    let mut buf = raw.to_vec();
                    self.metric.prepare_rows(&mut buf, n_features);
                    prepared = buf;
                    &prepared
                } else {
                    raw
                };
                let mut dists = vec![0.0f64; nq * nb];
                self.metric
                    .dist_block(tile, &self.centers, n_features, &mut dists);
                (0..nq)
                    .map(|qi| self.vote(&dists[qi * nb..(qi + 1) * nb]))
                    .collect()
            })
            .collect();
        tiles.into_iter().flatten().collect()
    }
}

#[cfg(test)]
impl GbKnn {
    /// The vote as it stood when the predictor cloned every ball: an
    /// m-long `(distance, index)` vector per query and
    /// `select_nth_unstable_by`, reading radii and labels from the balls
    /// themselves. Kept as the oracle the one-pass vote must match.
    fn oracle_vote(&self, balls: &[crate::ball::GranularBall], kernel: &[f64]) -> u32 {
        let mut dists: Vec<(f64, usize)> = kernel
            .iter()
            .enumerate()
            .map(|(i, &d_sq)| {
                let center_dist = self.metric.rank_of(d_sq);
                let d = match self.rule {
                    DistanceRule::Surface => center_dist - balls[i].radius,
                    DistanceRule::Center => center_dist,
                };
                (d, i)
            })
            .collect();
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then_with(|| a.1.cmp(&b.1))
        });
        let mut counts = vec![0usize; self.n_classes];
        for &(_, i) in &dists[..k] {
            counts[balls[i].label as usize] += 1;
        }
        counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then_with(|| ib.cmp(ia)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball::GranularBall;
    use gb_dataset::catalog::DatasetId;
    use gb_dataset::split::stratified_holdout;
    use gb_metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A random cover built to tie: centers and queries on a coarse grid,
    /// radii from three values, and a quarter of the balls copies of an
    /// earlier ball's center and radius (with a label of their own).
    fn tie_heavy_cover(rng: &mut StdRng, m: usize, p: usize, n_classes: u32) -> Vec<GranularBall> {
        let mut balls: Vec<GranularBall> = Vec::with_capacity(m);
        for i in 0..m {
            let (center, radius) = if i > 0 && rng.gen_bool(0.25) {
                let twin = &balls[rng.gen_range(0..i)];
                (twin.center.clone(), twin.radius)
            } else {
                let center = (0..p).map(|_| grid_value(rng)).collect();
                (center, [0.0, 0.5, 1.0][rng.gen_range(0..3)])
            };
            balls.push(GranularBall {
                center,
                radius,
                label: rng.gen_range(0..n_classes),
                members: vec![i],
                center_row: None,
                purity: 1.0,
            });
        }
        balls
    }

    fn grid_value(rng: &mut StdRng) -> f64 {
        f64::from(rng.gen_range(-3i32..=3)) * 0.5
    }

    /// Whether the `k`-th and `(k+1)`-th rule distances are equal, i.e.
    /// the ball index decides which of them votes.
    fn boundary_tied(clf: &GbKnn, kernel: &[f64]) -> bool {
        let mut d: Vec<f64> = kernel
            .iter()
            .enumerate()
            .map(|(i, &v)| match clf.rule {
                DistanceRule::Surface => clf.metric.rank_of(v) - clf.radii[i],
                DistanceRule::Center => clf.metric.rank_of(v),
            })
            .collect();
        d.sort_by(f64::total_cmp);
        clf.k < d.len() && d[clf.k - 1] == d[clf.k]
    }

    #[test]
    fn one_pass_vote_matches_the_select_nth_oracle() {
        let mut tied_boundaries = 0usize;
        for seed in 0..48u64 {
            let mut rng = gb_dataset::rng::rng_from_seed(seed);
            let p = [1, 2, 3, 5][rng.gen_range(0..4)];
            let m = rng.gen_range(1..=24);
            let n_classes = rng.gen_range(2..=4u32);
            let balls = tie_heavy_cover(&mut rng, m, p, n_classes);
            // More than one PREDICT_TILE of queries, so predict_batch
            // crosses a tile boundary.
            let queries: Vec<f64> = (0..(PREDICT_TILE + 5) * p)
                .map(|_| grid_value(&mut rng))
                .collect();
            for metric in Metric::ALL {
                let mut cover = balls.clone();
                for b in &mut cover {
                    metric.prepare_rows(&mut b.center, p);
                }
                let model = RdGbgModel {
                    balls: cover,
                    noise: vec![],
                    orphan_count: 0,
                    iterations: 1,
                    metric,
                };
                for k in [1, 2, 3, 5, m + 1] {
                    for rule in [DistanceRule::Surface, DistanceRule::Center] {
                        let mut clf = GbKnn::from_model(&model, n_classes as usize, k);
                        clf.set_rule(rule);
                        let batch = clf.predict_batch(&queries, p);
                        for (q, row) in queries.chunks_exact(p).enumerate() {
                            let kernel = clf.kernel_distances(&metric.prepare_query(row));
                            let want = clf.oracle_vote(&model.balls, &kernel);
                            let case = format!("seed {seed} {metric} k={k} {rule:?} query {q}");
                            assert_eq!(clf.vote(&kernel), want, "{case}");
                            assert_eq!(clf.predict_row(row), want, "{case}");
                            assert_eq!(batch[q], want, "{case}");
                            tied_boundaries += usize::from(boundary_tied(&clf, &kernel));
                        }
                    }
                }
            }
        }
        assert!(
            tied_boundaries > 1000,
            "the covers must exercise index tie-breaks ({tied_boundaries} tied boundaries)"
        );
    }

    #[test]
    fn classifies_separable_clusters() {
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let c = i % 2;
            feats.push(c as f64 * 10.0 + (i / 2) as f64 * 0.05);
            labels.push(c as u32);
        }
        let d = Dataset::from_parts(feats, labels, 1, 2);
        let model = GbKnn::fit(&d, &GbKnnConfig::default());
        assert_eq!(model.predict_row(&[0.3]), 0);
        assert_eq!(model.predict_row(&[10.3]), 1);
        assert!(model.n_balls() >= 2);
    }

    #[test]
    fn interior_points_match_their_ball() {
        let d = DatasetId::S5.generate(0.05, 1);
        let rdgbg = RdGbgConfig::default();
        let model = rd_gbg(&d, &rdgbg);
        let clf = GbKnn::from_model(&model, d.n_classes(), 1);
        // a training sample inside a positive-radius ball must get that
        // ball's label (surface distance is negative only for its own ball)
        for b in model.balls.iter().filter(|b| b.radius > 0.0).take(5) {
            let m = b.members[0];
            assert_eq!(clf.predict_row(d.row(m)), b.label);
        }
    }

    #[test]
    fn holdout_accuracy_reasonable() {
        let d = DatasetId::S9.generate(0.05, 2);
        let (tr, te) = stratified_holdout(&d, 0.3, 1);
        let model = GbKnn::fit(&d.select(&tr), &GbKnnConfig::default());
        let test = d.select(&te);
        let acc = accuracy(test.labels(), &model.predict(&test));
        assert!(acc > 0.85, "GB-kNN accuracy {acc}");
    }

    #[test]
    fn k3_votes() {
        let d = DatasetId::S5.generate(0.05, 3);
        let m1 = GbKnn::fit(
            &d,
            &GbKnnConfig {
                k: 1,
                ..Default::default()
            },
        );
        let m3 = GbKnn::fit(
            &d,
            &GbKnnConfig {
                k: 3,
                ..Default::default()
            },
        );
        // both should classify most training points correctly
        let a1 = accuracy(d.labels(), &m1.predict(&d));
        let a3 = accuracy(d.labels(), &m3.predict(&d));
        assert!(a1 > 0.85 && a3 > 0.8, "a1 {a1}, a3 {a3}");
    }

    #[test]
    fn center_rule_differs_from_surface_rule_when_radii_matter() {
        // One huge ball of class 0 and one tiny distant ball of class 1:
        // a query near (but outside) the huge ball is surface-closest to it
        // while being center-closest to whichever center is nearer.
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            feats.push(i as f64 * 0.5); // class 0 spread over [0, 14.5]
            labels.push(0);
        }
        for i in 0..5 {
            feats.push(30.0 + i as f64 * 0.01);
            labels.push(1);
        }
        let d = Dataset::from_parts(feats, labels, 1, 2);
        let surface = GbKnn::fit(&d, &GbKnnConfig::default());
        let center = GbKnn::fit(
            &d,
            &GbKnnConfig {
                rule: DistanceRule::Center,
                ..Default::default()
            },
        );
        // deep inside each cluster both rules agree
        assert_eq!(surface.predict_row(&[1.0]), 0);
        assert_eq!(center.predict_row(&[1.0]), 0);
        assert_eq!(surface.predict_row(&[30.02]), 1);
        assert_eq!(center.predict_row(&[30.02]), 1);
    }

    #[test]
    fn both_rules_classify_catalog_data_well() {
        let d = DatasetId::S9.generate(0.05, 4);
        let (tr, te) = stratified_holdout(&d, 0.3, 2);
        let test = d.select(&te);
        for rule in [DistanceRule::Surface, DistanceRule::Center] {
            let model = GbKnn::fit(
                &d.select(&tr),
                &GbKnnConfig {
                    rule,
                    ..Default::default()
                },
            );
            let acc = accuracy(test.labels(), &model.predict(&test));
            assert!(acc > 0.8, "{rule:?} accuracy {acc}");
        }
    }

    #[test]
    fn predict_batch_matches_row_loop_and_accessors_report() {
        let d = DatasetId::S5.generate(0.05, 7);
        let model = GbKnn::fit(&d, &GbKnnConfig::default());
        let batch = model.predict_batch(d.features(), d.n_features());
        let serial: Vec<u32> = (0..d.n_samples())
            .map(|i| model.predict_row(d.row(i)))
            .collect();
        assert_eq!(batch, serial);
        assert_eq!(model.n_classes(), d.n_classes());
        assert_eq!(model.n_features(), d.n_features());
        assert_eq!(model.k(), 1);
        assert_eq!(model.rule(), DistanceRule::Surface);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn predict_batch_rejects_wrong_width() {
        let d = DatasetId::S5.generate(0.05, 7);
        let model = GbKnn::fit(&d, &GbKnnConfig::default());
        let _ = model.predict_batch(&[0.0; 6], 3);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let d = DatasetId::S5.generate(0.02, 0);
        let _ = GbKnn::fit(
            &d,
            &GbKnnConfig {
                k: 0,
                ..Default::default()
            },
        );
    }
}
