//! The one RD-GBG engine (Algorithm 1 of the paper). A [`Granulator`]
//! holds the whole state of a granulation — the undivided set `U` (its
//! index's alive rows), the low-density set `L`, the noise list and the
//! diffusion balls — and [`Granulator::step`] runs one candidate through
//! the local-density verdict (Eq. 2), the heterogeneous stop (Eq. 3), the
//! conflict restriction (Eqs. 4–6) and the diffusion members, applying
//! what it decided before it returns. [`Granulator::finish`] runs the
//! orphan phase and assembles the [`RdGbgModel`].
//!
//! The two entry points differ only in the order they offer candidates:
//! the seeded engine ([`super::rd_gbg_with_progress`]) draws one random
//! candidate per class per iteration, the canonical sweep
//! ([`super::incremental`]) takes rows in ascending id and first replays a
//! clean prefix of its previous decisions with the previous cover's balls.
//!
//! The stop and the members come from the density hood wherever the two
//! rules in the parent module's "Indexed hot path" docs prove them, and
//! from the index otherwise. The three-query step the rules replaced is
//! kept below as the test oracle they are checked against, candidate by
//! candidate.

use super::RdGbgModel;
use crate::ball::GranularBall;
use crate::conflict::BallConflictIndex;
use gb_dataset::distance::{Metric, LANE_WIDTH};
use gb_dataset::index::{GranulationBackend, NeighborIndex, RangeBound, SqNeighbor};
use gb_dataset::Dataset;

/// Cumulative index-query counts of one granulation.
#[derive(Default)]
pub(crate) struct QueryCounts {
    /// k-NN queries: one density hood per candidate step.
    pub(crate) knn: usize,
    /// Nearest-heterogeneous queries the hood could not answer.
    pub(crate) het: usize,
    /// Range queries the hood could not answer.
    pub(crate) range: usize,
    /// Balls whose gap the conflict index evaluated for the conflict radius.
    pub(crate) conflict_visits: usize,
}

/// How a candidate is vetted before diffusion.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Vetting {
    /// The paper's local-density rules (Eq. 2) over the ρ nearest rows.
    Density(usize),
    /// The `detect_noise: false` ablation: only the nearest row is
    /// inspected, and a heterogeneous one routes the candidate to `L`.
    NearestOnly,
}

/// What a candidate step decided. Every kind takes the candidate out of
/// `T = U − L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecisionKind {
    /// The candidate grew the newest diffusion ball: its members left `U`
    /// and the ball joined the conflict index.
    Ball,
    /// The candidate moved to `L`: `1 < h < ρ`, no other row is alive,
    /// (under the ablation) the nearest row is heterogeneous, or nothing
    /// lay inside the bound at a positive distance (the candidate sits on
    /// the edge of `U`). It stays in `U`, absorbable by later balls and
    /// orphaned at the end if none absorbs it.
    LowDensity,
    /// `h == ρ`: the candidate itself is class noise and left `U`.
    CandidateNoise,
}

/// What one candidate step decided. The granulator has applied it when
/// the step returns.
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) kind: DecisionKind,
    /// Kernel distance at or beyond which every alive row the hood did not
    /// hold lies: the hood's last distance, `+∞` when the hood held every
    /// other alive row.
    pub(crate) reach: f64,
    /// The `h == 1` noisy nearest neighbour, which left `U` before
    /// diffusion.
    pub(crate) noisy_neighbor: Option<usize>,
    /// The kernel-space diffusion bound, when the candidate passed the
    /// verdict.
    pub(crate) bound: Option<f64>,
    /// The conflict radius (Eq. 4), not the heterogeneous stop, set the
    /// bound.
    pub(crate) conflict_bounded: bool,
}

impl Step {
    /// A step that ended at the verdict, before diffusion.
    fn rejected(kind: DecisionKind, reach: f64) -> Self {
        Self {
            kind,
            reach,
            noisy_neighbor: None,
            bound: None,
            conflict_bounded: false,
        }
    }
}

/// The state of one granulation: `U` (the index's alive rows), `L`, the
/// noise list, the diffusion balls with their conflict index, and the
/// query counts.
pub(crate) struct Granulator<'d> {
    data: &'d Dataset,
    index: Box<dyn NeighborIndex>,
    /// `None` under the overlap ablation: balls ignore earlier balls.
    conflicts: Option<BallConflictIndex>,
    /// Kernel metric of the index (cosine arrives as squared Euclidean
    /// over normalized rows).
    metric: Metric,
    vetting: Vetting,
    /// `L`: deferred rows. They stay in `U`.
    low_density: Vec<bool>,
    /// Rows removed as class noise, in removal order.
    noise: Vec<usize>,
    /// Diffusion balls, in creation order.
    balls: Vec<GranularBall>,
    /// Whether [`Granulator::fetch_hoods`] batches: a brute index over
    /// rows of at least [`LANE_WIDTH`] features. Batching tied or won
    /// there from p = 4 up and lost at three of four banana sizes at
    /// p = 2 (BENCH_GRANULATION.json entry 7).
    batch_hoods: bool,
    pub(crate) queries: QueryCounts,
}

impl<'d> Granulator<'d> {
    pub(crate) fn new(
        data: &'d Dataset,
        backend: GranulationBackend,
        metric: Metric,
        vetting: Vetting,
        restrict_overlap: bool,
    ) -> Self {
        let batch_hoods = backend.resolve(data.n_samples(), data.n_features())
            == GranulationBackend::Brute
            && data.n_features() >= LANE_WIDTH;
        Self {
            data,
            index: backend.build_with(data, metric),
            conflicts: restrict_overlap
                .then(|| BallConflictIndex::new_with(data.n_features(), metric)),
            metric,
            vetting,
            low_density: vec![false; data.n_samples()],
            noise: Vec::new(),
            balls: Vec::new(),
            batch_hoods,
            queries: QueryCounts::default(),
        }
    }

    /// `k` of a density hood: ρ, or 1 under the noise-detection ablation.
    fn hood_size(&self) -> usize {
        match self.vetting {
            Vetting::Density(rho) => rho,
            Vetting::NearestOnly => 1,
        }
    }

    /// The density hoods of `rows`, in order, fetched in one batched index
    /// call, for [`Granulator::step`] to use while they are fresh. Empty,
    /// with no query made, where batching does not pay: on trees, whose
    /// queries prune, and on sub-lane rows, which have no vector work to
    /// share between queries.
    pub(crate) fn fetch_hoods(&mut self, rows: &[usize]) -> Vec<Vec<SqNeighbor>> {
        if !self.batch_hoods {
            return Vec::new();
        }
        let queries: Vec<&[f64]> = rows.iter().map(|&row| self.data.row(row)).collect();
        let skips: Vec<Option<usize>> = rows.iter().map(|&row| Some(row)).collect();
        self.queries.knn += rows.len();
        self.index
            .k_nearest_sq_many(&queries, self.hood_size(), &skips)
    }

    /// Whether `row` is still in `U`.
    fn is_alive(&self, row: usize) -> bool {
        self.index.is_alive(row)
    }

    /// Whether `row` is still a candidate: in `T = U − L`.
    pub(crate) fn is_candidate(&self, row: usize) -> bool {
        self.is_alive(row) && !self.low_density[row]
    }

    /// The diffusion balls so far, in creation order.
    pub(crate) fn balls(&self) -> &[GranularBall] {
        &self.balls
    }

    /// The rows removed as class noise so far.
    pub(crate) fn noise(&self) -> &[usize] {
        &self.noise
    }

    /// Moves `row` from `U` to the noise list.
    pub(crate) fn discard(&mut self, row: usize) {
        self.index.delete(row);
        self.noise.push(row);
    }

    /// Moves `row` to `L`.
    pub(crate) fn defer(&mut self, row: usize) {
        self.low_density[row] = true;
    }

    /// Adds a diffusion ball: its members leave `U` and it joins the
    /// conflict index.
    pub(crate) fn absorb(&mut self, ball: GranularBall) {
        for &m in &ball.members {
            debug_assert!(self.index.is_alive(m));
            debug_assert_eq!(
                self.data.label(m),
                ball.label,
                "restricted diffusion must yield pure balls"
            );
            self.index.delete(m);
        }
        if let Some(conflicts) = &mut self.conflicts {
            conflicts.push(&ball.center, ball.radius);
        }
        self.balls.push(ball);
    }

    /// Runs one candidate through the verdict and diffusion, answering the
    /// heterogeneous stop and the members from the density hood wherever
    /// the parent module's rules prove them. `fetched` is the candidate's
    /// hood from [`Granulator::fetch_hoods`], if one was fetched.
    pub(crate) fn step(&mut self, row: usize, fetched: Option<Vec<SqNeighbor>>) -> Step {
        self.vet_then_diffuse(row, fetched, |g, hood, reach| {
            g.diffusion_from_hood(row, hood, reach)
        })
    }

    /// Takes the candidate's hood — the fetched one while every row in it
    /// is still alive, a fresh query otherwise — and applies the Eq.-2
    /// verdict. An accepted candidate's noisy neighbour leaves `U`, and
    /// `diffusion`, given the hood without it and the hood's reach, returns
    /// the bound and the rows inside it, from which the ball is built.
    fn vet_then_diffuse(
        &mut self,
        row: usize,
        fetched: Option<Vec<SqNeighbor>>,
        diffusion: impl FnOnce(&mut Self, &[SqNeighbor], f64) -> (f64, RangeBound, Vec<SqNeighbor>),
    ) -> Step {
        let data = self.data;
        let label = data.label(row);
        let k = self.hood_size();
        // Rows only ever leave `U`: while every row of a fetched hood is
        // alive, they are still the first `k` alive rows in `(dist, row)`
        // order, and a hood shorter than `k` still holds every other row.
        let hood = match fetched {
            Some(hood) if hood.iter().all(|n| self.index.is_alive(n.row)) => hood,
            _ => {
                self.queries.knn += 1;
                self.index.k_nearest_sq(data.row(row), k, Some(row))
            }
        };
        let reach = if hood.len() < k {
            f64::INFINITY
        } else {
            hood[k - 1].sq_dist
        };
        // The hood's first hit is the nearest neighbour under the shared
        // tie-break. With no other undivided sample there is nothing to
        // diffuse into; the orphan phase picks the candidate up.
        let Some(&nn) = hood.first() else {
            self.defer(row);
            return Step::rejected(DecisionKind::LowDensity, reach);
        };
        let mut noisy_neighbor = None;
        if data.label(nn.row) != label {
            // Heterogeneous nearest neighbour: the ρ-hood votes (it holds
            // fewer rows when fewer than ρ remain).
            let h = hood.iter().filter(|n| data.label(n.row) != label).count();
            match self.vetting {
                Vetting::Density(_) if h == hood.len() => {
                    self.discard(row);
                    return Step::rejected(DecisionKind::CandidateNoise, reach);
                }
                Vetting::Density(_) if h == 1 => {
                    self.discard(nn.row);
                    noisy_neighbor = Some(nn.row);
                }
                _ => {
                    self.defer(row);
                    return Step::rejected(DecisionKind::LowDensity, reach);
                }
            }
        }
        // The noisy neighbour is the hood's first row.
        let rest = &hood[usize::from(noisy_neighbor.is_some())..];
        let (bound, range_bound, hits) = diffusion(self, rest, reach);
        let r_k = hits.iter().fold(0.0f64, |m, h| m.max(h.sq_dist));
        let radius = self.metric.rank_of(r_k);
        let kind = if radius > 0.0 {
            let mut members: Vec<usize> = hits.iter().map(|h| h.row).collect();
            members.push(row);
            members.sort_unstable();
            self.absorb(GranularBall {
                center: data.row(row).to_vec(),
                radius,
                label,
                members,
                center_row: Some(row),
                purity: 1.0,
            });
            DecisionKind::Ball
        } else {
            self.defer(row);
            DecisionKind::LowDensity
        };
        Step {
            kind,
            reach,
            noisy_neighbor,
            bound: Some(bound),
            conflict_bounded: range_bound == RangeBound::Inclusive,
        }
    }

    /// The diffusion bound and hits from the hood rows left after the
    /// verdict (`rest`), asking the index only where the hood cannot prove
    /// the heterogeneous stop or the members.
    fn diffusion_from_hood(
        &mut self,
        row: usize,
        rest: &[SqNeighbor],
        reach: f64,
    ) -> (f64, RangeBound, Vec<SqNeighbor>) {
        let data = self.data;
        let label = data.label(row);
        let c = data.row(row);
        let rconf_k = self.conflict_bound(c);
        // Every heterogeneous row outside the hood is at least `reach` away.
        // With the hood complete (`reach = ∞`) there is none; below `reach`
        // the conflict bound binds whatever the stop is, so `reach` stands
        // in for it.
        let d_het = match rest.iter().find(|n| data.label(n.row) != label) {
            Some(n) => n.sq_dist,
            None if reach == f64::INFINITY || rconf_k < reach => reach,
            None => self.nearest_heterogeneous(row),
        };
        let (bound, kind) = diffusion_bound(rconf_k, d_het);
        // A bound that admits no row at distance `reach` admits no row
        // outside the hood.
        let hood_suffices = match kind {
            RangeBound::Strict => bound <= reach,
            RangeBound::Inclusive => bound < reach,
        };
        let hits = if hood_suffices {
            rest.iter()
                .filter(|n| kind.admits(n.sq_dist, bound))
                .copied()
                .collect()
        } else {
            self.queries.range += 1;
            self.index.range_sq(c, bound, kind, Some(row))
        };
        (bound, kind, hits)
    }

    /// The conflict radius (Eq. 4) in kernel space, `+∞` under the overlap
    /// ablation. `plane_gap` maps the rank-space radius into the kernel
    /// space the index answers in (square for L2/chord, identity for L1).
    fn conflict_bound(&mut self, c: &[f64]) -> f64 {
        let rconf = self.conflicts.as_ref().map_or(f64::INFINITY, |conflicts| {
            conflicts.conflict_radius(c, &mut self.queries.conflict_visits)
        });
        self.metric.plane_gap(rconf)
    }

    fn nearest_heterogeneous(&mut self, row: usize) -> f64 {
        self.queries.het += 1;
        let data = self.data;
        self.index
            .nearest_heterogeneous_sq(data.row(row), data.label(row), Some(row))
            .map_or(f64::INFINITY, |h| h.sq_dist)
    }

    /// The orphan phase and the model: every row still in `U` (the part of
    /// `L` no ball absorbed) becomes its own radius-0 ball, honouring the
    /// completeness criterion. `metric` is the metric the caller
    /// granulated under (cosine, not the kernel's squared Euclidean).
    pub(crate) fn finish(self, iterations: usize, metric: Metric) -> RdGbgModel {
        let data = self.data;
        let mut balls = self.balls;
        let diffusion = balls.len();
        balls.extend(
            (0..data.n_samples())
                .filter(|&r| self.index.is_alive(r))
                .map(|row| GranularBall {
                    center: data.row(row).to_vec(),
                    radius: 0.0,
                    label: data.label(row),
                    members: vec![row],
                    center_row: Some(row),
                    purity: 1.0,
                }),
        );
        RdGbgModel {
            orphan_count: balls.len() - diffusion,
            balls,
            noise: self.noise,
            iterations,
            metric,
        }
    }
}

/// The diffusion bound (Eqs. 3–6) from the kernel-space conflict radius
/// and heterogeneous distance, both known before members are collected, so
/// one member set serves Eq. 5/6:
///
/// * `rconf ≥ d_het` — the heterogeneous stop binds first; the members are
///   exactly `{d < d_het}` and the radius is the largest of them (it stays
///   within `rconf` by construction);
/// * `rconf < d_het` — `{d < d_het}` clipped to `rconf` and `{d ≤ rconf}`
///   coincide: any `d ≤ rconf` is `< d_het`.
///
/// Every backend evaluates the same expressions on the same floats, so the
/// choice stays backend-invariant.
fn diffusion_bound(rconf_k: f64, d_het: f64) -> (f64, RangeBound) {
    if rconf_k < d_het {
        (rconf_k, RangeBound::Inclusive)
    } else {
        (d_het, RangeBound::Strict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Granulator<'_> {
        /// The three-query step the hood rules replaced: after the verdict
        /// it always asks the index for the nearest heterogeneous row and
        /// for the members. Kept only as the oracle of the rules.
        fn oracle_step(&mut self, row: usize) -> Step {
            self.vet_then_diffuse(row, None, |g, _, _| {
                let c = g.data.row(row);
                let d_het = g.nearest_heterogeneous(row);
                let (bound, kind) = diffusion_bound(g.conflict_bound(c), d_het);
                (bound, kind, g.index.range_sq(c, bound, kind, Some(row)))
            })
        }
    }

    /// Bit-level equality (`PartialEq` on `f64` would equate `0.0` and
    /// `-0.0`); `Debug` prints every distinct float differently.
    fn same(a: &Step, b: &Step) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// The edge cases a sweep met, read off its steps.
    #[derive(Debug, Default)]
    struct Edges {
        accepted: usize,
        /// Heterogeneous stops / member sets the hood answered.
        het_answered: usize,
        range_answered: usize,
        /// Accepted steps whose hood held every other alive row.
        complete: usize,
        /// Accepted steps whose hood ended at distance 0 (duplicates).
        zero_reach: usize,
        /// Strict bound exactly at a finite reach: the hood answers.
        strict_ties: usize,
        /// Inclusive (conflict) bound exactly at a finite reach: a row
        /// outside the hood may tie, so only the index can answer.
        inclusive_ties: usize,
        /// Fetched hoods a step used as they were.
        fresh_hoods: usize,
        /// Fetched hoods a step replaced with a query: a row had left `U`.
        stale_hoods: usize,
    }

    /// Sweeps every candidate of `order` (twice, so later passes meet a
    /// shrunken `U` and a populated conflict index) through the hood step
    /// and the oracle on twin granulators, requiring identical steps and,
    /// at the end, identical balls, noise, `U` and `L`. With `window > 0`
    /// the hood side fetches the hoods of each `window` candidates of the
    /// order in one batched call first, as the seeded engine does per
    /// iteration, whatever the backend and width.
    #[allow(clippy::too_many_arguments)]
    fn sweep_against_oracle(
        data: &Dataset,
        order: &[usize],
        window: usize,
        backend: GranulationBackend,
        metric: Metric,
        vetting: Vetting,
        restrict_overlap: bool,
        edges: &mut Edges,
    ) {
        let mut hood = Granulator::new(data, backend, metric, vetting, restrict_overlap);
        let mut oracle = Granulator::new(data, backend, metric, vetting, restrict_overlap);
        hood.batch_hoods = window > 0;
        let mut accepted = 0;
        let mut unused_hoods = 0;
        for pass in [order, order] {
            for window_rows in pass.chunks(window.max(1)) {
                let candidates: Vec<usize> = window_rows
                    .iter()
                    .copied()
                    .filter(|&row| hood.is_candidate(row))
                    .collect();
                let mut hoods = hood.fetch_hoods(&candidates);
                unused_hoods += hoods.len();
                for (i, &row) in candidates.iter().enumerate() {
                    if !hood.is_candidate(row) {
                        continue;
                    }
                    let fetched = hoods.get_mut(i).map(std::mem::take);
                    let had_hood = fetched.is_some();
                    let queried = hood.queries.knn;
                    let a = hood.step(row, fetched);
                    if had_hood {
                        let stale = hood.queries.knn - queried;
                        edges.stale_hoods += stale;
                        edges.fresh_hoods += 1 - stale;
                        unused_hoods -= 1 - stale;
                    }
                    let b = oracle.oracle_step(row);
                    assert!(same(&a, &b), "row {row}: hood {a:?} vs oracle {b:?}");
                    if let Some(bound) = a.bound {
                        accepted += 1;
                        edges.complete += usize::from(a.reach == f64::INFINITY);
                        edges.zero_reach += usize::from(a.reach == 0.0);
                        if bound == a.reach && a.reach.is_finite() {
                            if a.conflict_bounded {
                                edges.inclusive_ties += 1;
                            } else {
                                edges.strict_ties += 1;
                            }
                        }
                    }
                }
            }
        }
        // `Debug` again, for bit-level radii and centers.
        assert_eq!(format!("{:?}", hood.balls), format!("{:?}", oracle.balls));
        assert_eq!(hood.noise, oracle.noise);
        assert_eq!(hood.low_density, oracle.low_density);
        for row in 0..data.n_samples() {
            assert_eq!(hood.is_alive(row), oracle.is_alive(row), "row {row}");
        }
        // Every step asked for one hood; the hood side also fetched the
        // ones no step used as they were.
        assert_eq!(hood.queries.knn, oracle.queries.knn + unused_hoods);
        assert_eq!(oracle.queries.het, accepted);
        edges.accepted += accepted;
        edges.het_answered += accepted - hood.queries.het;
        edges.range_answered += accepted - hood.queries.range;
    }

    /// Rows on a tiny integer grid (coordinates in `0..4`, mostly 1-d), so
    /// duplicate rows and exact distance ties — at the hood's last
    /// distance, and between it and an integer conflict radius — are the
    /// common case rather than the exception. Half the cases stay at
    /// `n ≤ ρ + 2`, where the hood is often complete.
    fn arb_case() -> impl Strategy<Value = (Dataset, Vec<usize>, usize)> {
        (2usize..6, 0usize..4, 2usize..4, 0usize..2).prop_flat_map(|(rho, width, q, small)| {
            let p = [1, 1, 2, 3][width];
            let n_hi = if small == 0 { rho + 3 } else { 40 };
            (2usize..n_hi).prop_flat_map(move |n| {
                (
                    proptest::collection::vec(0u32..4, n * p),
                    proptest::collection::vec(0u32..q as u32, n),
                    proptest::collection::vec(0u64..u64::MAX, n),
                    Just(rho),
                )
                    .prop_map(move |(grid, labels, keys, rho)| {
                        let feats = grid.into_iter().map(f64::from).collect();
                        let data = Dataset::from_parts(feats, labels, p, q);
                        // A random candidate order from the sort keys.
                        let mut order: Vec<usize> = (0..n).collect();
                        order.sort_by_key(|&r| keys[r]);
                        (data, order, rho)
                    })
            })
        })
    }

    /// Runs `cases` cases of [`arb_case`] through [`sweep_against_oracle`]
    /// under every metric, cycling backends and vetting modes, fetching
    /// hoods in windows of `window(case)` candidates.
    fn oracle_sweeps(name: &str, cases: u32, window: impl Fn(u32) -> usize) -> Edges {
        let mut edges = Edges::default();
        for case in 0..cases {
            let mut rng = proptest::test_rng(name, case);
            let (data, order, rho) = arb_case().generate(&mut rng);
            let backend = GranulationBackend::CONCRETE[case as usize % 3];
            let (vetting, restrict) = match case / 3 % 3 {
                0 => (Vetting::Density(rho), true),
                1 => (Vetting::Density(rho), false),
                _ => (Vetting::NearestOnly, true),
            };
            for metric in Metric::ALL {
                // Cosine granulates normalized rows with the squared
                // Euclidean kernel (see `rd_gbg_with_progress`).
                let (rows, kernel) = if metric == Metric::Cosine {
                    let mut feats = data.features().to_vec();
                    gb_dataset::distance::l2_normalize_rows(&mut feats, data.n_features());
                    let normalized = Dataset::from_parts(
                        feats,
                        data.labels().to_vec(),
                        data.n_features(),
                        data.n_classes(),
                    );
                    (normalized, Metric::SqEuclidean)
                } else {
                    (data.clone(), metric)
                };
                sweep_against_oracle(
                    &rows,
                    &order,
                    window(case),
                    backend,
                    kernel,
                    vetting,
                    restrict,
                    &mut edges,
                );
            }
        }
        edges
    }

    #[test]
    fn hood_step_matches_the_three_query_oracle() {
        let edges = oracle_sweeps("hood_step_oracle", 1000, |_| 0);
        // The inputs must actually reach the edges the rules are about.
        assert!(edges.complete >= 200, "{edges:?}");
        assert!(edges.zero_reach >= 200, "{edges:?}");
        assert!(edges.strict_ties >= 200, "{edges:?}");
        assert!(edges.inclusive_ties >= 30, "{edges:?}");
        assert!(
            edges.het_answered > 0 && edges.range_answered > 0,
            "{edges:?}"
        );
    }

    #[test]
    fn prefetched_hoods_match_the_three_query_oracle() {
        // Windows of 2..=7 candidates: the seeded engine fetches one hood
        // per class still in `T` per iteration.
        let edges = oracle_sweeps("prefetch_oracle", 300, |case| 2 + case as usize % 6);
        // Both sides of the staleness rule must be met.
        assert!(edges.fresh_hoods >= 1000, "{edges:?}");
        assert!(edges.stale_hoods >= 100, "{edges:?}");
    }

    #[test]
    fn hood_answers_most_steps_on_catalog_data() {
        // Not a correctness property (the oracle test is): a guard that the
        // rules keep firing, so a regression to "always query" shows.
        let clean = gb_dataset::catalog::DatasetId::S5.generate(0.2, 3);
        let data = gb_dataset::noise::inject_class_noise(&clean, 0.1, 4).0;
        let order: Vec<usize> = (0..data.n_samples()).collect();
        let mut edges = Edges::default();
        sweep_against_oracle(
            &data,
            &order,
            0,
            GranulationBackend::KdTree,
            Metric::SqEuclidean,
            Vetting::Density(5),
            true,
            &mut edges,
        );
        assert!(edges.accepted > 50, "{edges:?}");
        assert!(edges.het_answered * 4 > edges.accepted * 3, "{edges:?}");
        assert!(edges.range_answered * 4 > edges.accepted * 3, "{edges:?}");
    }
}
