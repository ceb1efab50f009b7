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
//! ([`super::incremental`]) takes rows in ascending id.
//!
//! The stop and the members come from the density hood wherever the two
//! rules in the parent module's "Indexed hot path" docs prove them, and
//! from the index otherwise. The hood itself comes from the hood table
//! when the seeded engine fetched the candidate's list ([`HoodTable`]).
//! The three-query step the rules replaced is kept below as the test
//! oracle they are checked against, candidate by candidate.

use super::RdGbgModel;
use crate::ball::GranularBall;
use crate::conflict::BallConflictIndex;
use gb_dataset::distance::{Metric, LANE_WIDTH};
use gb_dataset::index::{GranulationBackend, NeighborIndex, RangeBound, SqNeighbor};
use gb_dataset::Dataset;

/// Cumulative index-query counts of one granulation.
#[derive(Default)]
pub(crate) struct QueryCounts {
    /// k-NN queries: one per fetched hood list, and one per candidate step
    /// whose hood no list yielded.
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

impl Vetting {
    /// `k` of a density hood: ρ, or 1 under the noise-detection ablation.
    fn hood_size(self) -> usize {
        match self {
            Vetting::Density(rho) => rho,
            Vetting::NearestOnly => 1,
        }
    }
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
    /// other alive row. Only the oracle tests read it.
    #[cfg(test)]
    reach: f64,
    /// The `h == 1` noisy nearest neighbour, which left `U` before
    /// diffusion.
    pub(crate) noisy_neighbor: Option<usize>,
    /// The kernel-space diffusion bound, when the candidate passed the
    /// verdict. Only the oracle tests read it.
    #[cfg(test)]
    bound: Option<f64>,
    /// The conflict radius (Eq. 4), not the heterogeneous stop, set the
    /// bound.
    pub(crate) conflict_bounded: bool,
}

/// The longest hood list the table holds. A list takes `k′ = 2k + 2`
/// entries, and `POST /sample` takes ρ from request bodies, so past this
/// width (ρ > 31) nothing is fetched and the table is never allocated.
const MAX_LIST: usize = 64;

/// Rows per [`NeighborIndex::k_nearest_sq_par`] call of a fetch. The
/// answers of one call are held as per-row vectors until they are copied
/// into the table, so a fetch of every row of `T` goes in pieces.
const FETCH_PIECE: usize = 1024;

/// Rows of `T` below which fetching all of them does not pay: at ~650 rows
/// (S1, S2) the fetch is about a millisecond of work, and whether the
/// pool's second thread joins it in time decides whether it wins or loses
/// (S2 at ρ = 3: 2.2 ms with one query per step, 1.7–3.0 ms with the
/// fetch; BENCH_GRANULATION.json entry 8).
const MIN_WHOLE_FETCH: usize = 1024;

/// A fetched list's length marking a row that was never fetched.
const UNFETCHED: u8 = u8::MAX;

/// Each fetched row's `k′` nearest alive rows at fetch time, as row ids in
/// `(dist, row)` order, in one flat table: row `r`'s list is
/// `ids[r·k′..][..lens[r]]`. A list shorter than `k′` held every other
/// alive row. Rows only ever leave `U`, so the first `k` alive rows of a
/// list are the row's `k` nearest alive rows for as long as there are `k`
/// of them, and a short list's alive rows stay every other alive row.
struct HoodTable {
    /// `k′`; 0 where the granulator never fetches.
    width: usize,
    ids: Vec<u32>,
    /// Each row's list length, [`UNFETCHED`] for a row never fetched;
    /// empty until the first fetch allocates the table.
    lens: Vec<u8>,
}

impl HoodTable {
    /// The table of a granulator over `p`-wide rows whose hoods hold `k`
    /// rows: lists of `2k + 2` rows, or none on sub-lane rows (no vector
    /// work to share between queries) and past [`MAX_LIST`].
    fn new(p: usize, k: usize) -> Self {
        let width = 2 * k + 2;
        Self {
            width: if p >= LANE_WIDTH && width <= MAX_LIST {
                width
            } else {
                0
            },
            ids: Vec::new(),
            lens: Vec::new(),
        }
    }

    /// `row`'s fetched list, if it has one.
    fn list(&self, row: usize) -> Option<&[u32]> {
        match self.lens.get(row) {
            Some(&len) if len != UNFETCHED => {
                Some(&self.ids[row * self.width..][..usize::from(len)])
            }
            _ => None,
        }
    }

    /// Stores `row`'s list, allocating the table for `n` rows first.
    fn set(&mut self, n: usize, row: usize, list: &[SqNeighbor]) {
        if self.lens.is_empty() {
            self.lens = vec![UNFETCHED; n];
            self.ids = vec![0; n * self.width];
        }
        let slots = &mut self.ids[row * self.width..][..list.len()];
        for (slot, hit) in slots.iter_mut().zip(list) {
            *slot = hit.row as u32;
        }
        self.lens[row] = list.len() as u8;
    }
}

/// The state of one granulation: `U` (the index's alive rows), `L`, the
/// noise list, the diffusion balls with their conflict index, the hood
/// table, and the query counts.
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
    hoods: HoodTable,
    /// Whether the index is a brute scan, whose blocked sweep pays for a
    /// fetch of a few candidates (see [`Granulator::batches_candidates`]).
    brute: bool,
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
        let brute =
            backend.resolve(data.n_samples(), data.n_features()) == GranulationBackend::Brute;
        debug_assert!(
            !metric.normalizes(),
            "cosine granulates normalized rows with the squared-Euclidean kernel"
        );
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
            hoods: HoodTable::new(data.n_features(), vetting.hood_size()),
            brute,
            queries: QueryCounts::default(),
        }
    }

    /// `k` of a density hood.
    fn hood_size(&self) -> usize {
        self.vetting.hood_size()
    }

    /// Whether the table serves lists at all: rows of at least
    /// [`LANE_WIDTH`] features and `k′` within [`MAX_LIST`].
    pub(crate) fn fetches(&self) -> bool {
        self.hoods.width > 0
    }

    /// Whether fetching all `t` rows left in `T` at once pays: `t` must
    /// reach [`MIN_WHOLE_FETCH`], and a tree needs a second thread. A
    /// brute tile reads the alive rows once for 16 queries, which wins on
    /// one thread too; a tree tile is 16 single queries of the longer
    /// `k′`-lists, more work than the per-step queries it replaces, which
    /// lost on one CPU in 32 of the 54 tree cells of entry 8.
    pub(crate) fn fetches_all(&self, t: usize) -> bool {
        self.fetches() && t >= MIN_WHOLE_FETCH && (self.brute || rayon::current_num_threads() > 1)
    }

    /// Whether fetching a handful of candidates pays: a brute index, whose
    /// blocked sweep reads its alive rows once for all of them, over rows
    /// the table serves. Batching each iteration's candidates tied or won
    /// there from p = 4 up and lost at three of four banana sizes at p = 2
    /// (BENCH_GRANULATION.json entry 7); trees, whose queries prune, gain
    /// nothing from a fetch that small.
    pub(crate) fn batches_candidates(&self) -> bool {
        self.brute && self.fetches()
    }

    /// Fetches the `k′`-lists of `rows` into the hood table, for the
    /// steps of those rows to take their hoods from. A no-op where the
    /// table serves no list: sub-lane rows and `k′` past [`MAX_LIST`].
    pub(crate) fn fetch_hoods(&mut self, rows: &[usize]) {
        self.fetch_hoods_in(rows, rows.len().div_ceil(FETCH_PIECE));
    }

    /// [`Granulator::fetch_hoods`] in `pieces` contiguous pieces of
    /// `rows` (at least one), each one [`NeighborIndex::k_nearest_sq_par`]
    /// call, whose tiles run on the thread pool. A row's list is its own
    /// query's answer, so the table is the same for any split.
    fn fetch_hoods_in(&mut self, rows: &[usize], pieces: usize) {
        if self.hoods.width == 0 || rows.is_empty() {
            return;
        }
        let data = self.data;
        let pieces = pieces.clamp(1, rows.len());
        for piece in 0..pieces {
            let piece = &rows[rows.len() * piece / pieces..rows.len() * (piece + 1) / pieces];
            let queries: Vec<&[f64]> = piece.iter().map(|&row| data.row(row)).collect();
            let skips: Vec<Option<usize>> = piece.iter().map(|&row| Some(row)).collect();
            let lists = self
                .index
                .k_nearest_sq_par(&queries, self.hoods.width, &skips);
            for (&row, list) in piece.iter().zip(&lists) {
                self.hoods.set(data.n_samples(), row, list);
            }
        }
        self.queries.knn += rows.len();
    }

    /// `row`'s density hood: the first `k` alive rows of its fetched list,
    /// or every alive row of a list that held every other alive row, with
    /// their kernel distances recomputed ([`Metric::pair`] is
    /// bit-identical to every scan, kernel contract v2); a fresh query
    /// when the row has no list or its list has fewer than `k` alive rows
    /// left.
    fn hood(&mut self, row: usize) -> Vec<SqNeighbor> {
        let data = self.data;
        let k = self.hood_size();
        if let Some(list) = self.hoods.list(row) {
            let c = data.row(row);
            let hood: Vec<SqNeighbor> = list
                .iter()
                .map(|&n| n as usize)
                .filter(|&n| self.index.is_alive(n))
                .take(k)
                .map(|n| SqNeighbor {
                    row: n,
                    sq_dist: self.metric.pair(c, data.row(n)),
                })
                .collect();
            if hood.len() == k || list.len() < self.hoods.width {
                return hood;
            }
        }
        self.queries.knn += 1;
        self.index.k_nearest_sq(data.row(row), k, Some(row))
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
    fn discard(&mut self, row: usize) {
        self.index.delete(row);
        self.noise.push(row);
    }

    /// Moves `row` to `L`.
    fn defer(&mut self, row: usize) {
        self.low_density[row] = true;
    }

    /// Adds a diffusion ball: its members leave `U` and it joins the
    /// conflict index.
    fn absorb(&mut self, ball: GranularBall) {
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
    /// the parent module's rules prove them.
    pub(crate) fn step(&mut self, row: usize) -> Step {
        self.vet_then_diffuse(row, |g, hood, reach| {
            g.diffusion_from_hood(row, hood, reach)
        })
    }

    /// Takes the candidate's hood ([`Granulator::hood`]) and applies the
    /// Eq.-2 verdict. An accepted candidate's noisy neighbour leaves `U`,
    /// and `diffusion`, given the hood without it and the hood's reach,
    /// returns the bound and the rows inside it, from which the ball is
    /// built.
    fn vet_then_diffuse(
        &mut self,
        row: usize,
        diffusion: impl FnOnce(&mut Self, &[SqNeighbor], f64) -> (f64, RangeBound, Vec<SqNeighbor>),
    ) -> Step {
        let k = self.hood_size();
        let hood = self.hood(row);
        let reach = if hood.len() < k {
            f64::INFINITY
        } else {
            hood[k - 1].sq_dist
        };
        let (kind, noisy_neighbor, diffused) = match self.verdict(row, &hood) {
            Err(kind) => (kind, None, None),
            Ok(noisy_neighbor) => {
                // The noisy neighbour is the hood's first row.
                let rest = &hood[usize::from(noisy_neighbor.is_some())..];
                let (bound, range_bound, hits) = diffusion(self, rest, reach);
                let kind = self.grow(row, &hits);
                (kind, noisy_neighbor, Some((bound, range_bound)))
            }
        };
        Step {
            kind,
            #[cfg(test)]
            reach,
            noisy_neighbor,
            #[cfg(test)]
            bound: diffused.map(|(bound, _)| bound),
            conflict_bounded: diffused.is_some_and(|(_, kind)| kind == RangeBound::Inclusive),
        }
    }

    /// The Eq.-2 verdict on `row`'s hood, applied: `Ok` with the `h == 1`
    /// noisy neighbour, already out of `U`, when the candidate goes on to
    /// diffusion; `Err` with what the candidate became otherwise.
    fn verdict(&mut self, row: usize, hood: &[SqNeighbor]) -> Result<Option<usize>, DecisionKind> {
        let data = self.data;
        let label = data.label(row);
        // The hood's first hit is the nearest neighbour under the shared
        // tie-break. With no other undivided sample there is nothing to
        // diffuse into; the orphan phase picks the candidate up.
        let Some(&nn) = hood.first() else {
            self.defer(row);
            return Err(DecisionKind::LowDensity);
        };
        if data.label(nn.row) == label {
            return Ok(None);
        }
        // Heterogeneous nearest neighbour: the ρ-hood votes (it holds fewer
        // rows when fewer than ρ remain).
        let h = hood.iter().filter(|n| data.label(n.row) != label).count();
        match self.vetting {
            Vetting::Density(_) if h == hood.len() => {
                self.discard(row);
                Err(DecisionKind::CandidateNoise)
            }
            Vetting::Density(_) if h == 1 => {
                self.discard(nn.row);
                Ok(Some(nn.row))
            }
            _ => {
                self.defer(row);
                Err(DecisionKind::LowDensity)
            }
        }
    }

    /// Grows `row`'s ball over the diffusion `hits`, or moves `row` to `L`
    /// when none of them lies at a positive distance.
    fn grow(&mut self, row: usize, hits: &[SqNeighbor]) -> DecisionKind {
        let data = self.data;
        let r_k = hits.iter().fold(0.0f64, |m, h| m.max(h.sq_dist));
        let radius = self.metric.rank_of(r_k);
        if radius > 0.0 {
            let mut members: Vec<usize> = hits.iter().map(|h| h.row).collect();
            members.push(row);
            members.sort_unstable();
            self.absorb(GranularBall {
                center: data.row(row).to_vec(),
                radius,
                label: data.label(row),
                members,
                center_row: Some(row),
                purity: 1.0,
            });
            DecisionKind::Ball
        } else {
            self.defer(row);
            DecisionKind::LowDensity
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
            self.vet_then_diffuse(row, |g, _, _| {
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
        /// Fetched lists a step took its hood from with every row alive.
        fresh_lists: usize,
        /// Full lists with dead rows whose first `k` alive rows were the
        /// hood.
        dead_rows_yielded: usize,
        /// Short lists (every other alive row at fetch time) a step took
        /// all its alive rows from, `k` or fewer.
        short_lists: usize,
        /// Full lists with fewer than `k` alive rows left: the step had to
        /// query.
        requeried: usize,
    }

    /// Sweeps every candidate of `order` (twice, so later passes meet a
    /// shrunken `U` and a populated conflict index) through the hood step
    /// and the oracle on twin granulators, requiring identical steps and,
    /// at the end, identical balls, noise, `U` and `L`. With `window > 0`
    /// the hood side takes lists of `2k + 2` rows, whatever the backend
    /// and width: up to a window partway through the first pass it
    /// fetches the lists of each `window` candidates in one call, as the
    /// seeded engine does per iteration on the brute backend, then it
    /// fetches every row left in `T` once, as the seeded engine does at
    /// its first ball-less iteration, and no more. Every step must query the index
    /// exactly when its list cannot yield its hood.
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
        let k = hood.hood_size();
        hood.hoods.width = if window > 0 { 2 * k + 2 } else { 0 };
        let windows = order.chunks(window.max(1));
        // The window before which the first pass fetches all of `T`:
        // halfway for even windows, a quarter of the way for odd ones, so
        // the lists of some sweeps go stale for longer.
        let whole_fetch_at = (window > 0).then_some(windows.len() / (2 + 2 * (window % 2)));
        let mut accepted = 0;
        let (mut fetched, mut used) = (0, 0);
        for pass in 0..2 {
            for (w, window_rows) in windows.clone().enumerate() {
                let first_half = pass == 0 && whole_fetch_at.is_some_and(|at| w < at);
                let fetch = if first_half {
                    window_rows.to_vec()
                } else if pass == 0 && whole_fetch_at == Some(w) {
                    (0..data.n_samples()).collect()
                } else {
                    Vec::new()
                };
                let fetch: Vec<usize> = fetch
                    .into_iter()
                    .filter(|&r| hood.is_candidate(r))
                    .collect();
                hood.fetch_hoods(&fetch);
                fetched += fetch.len();
                for &row in window_rows {
                    if !hood.is_candidate(row) {
                        continue;
                    }
                    // What the list holds before the step: its length and
                    // its rows still alive.
                    let list = hood.hoods.list(row).map(|list| {
                        let alive = list.iter().filter(|&&n| hood.is_alive(n as usize)).count();
                        (list.len(), alive)
                    });
                    let queried = hood.queries.knn;
                    let a = hood.step(row);
                    let requery = hood.queries.knn - queried;
                    if let Some((len, alive)) = list {
                        let short = len < hood.hoods.width;
                        let yields = alive >= k || short;
                        assert_eq!(
                            requery,
                            usize::from(!yields),
                            "row {row}: {len} listed, {alive} alive"
                        );
                        used += usize::from(yields);
                        if !yields {
                            edges.requeried += 1;
                        } else if short {
                            edges.short_lists += 1;
                        } else if alive < len {
                            edges.dead_rows_yielded += 1;
                        } else {
                            edges.fresh_lists += 1;
                        }
                    } else {
                        assert_eq!(requery, 1, "row {row} has no list");
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
        // The oracle asked for one hood per step; the hood side asked for
        // one per fetched list and one per step no list served.
        assert_eq!(hood.queries.knn + used, oracle.queries.knn + fetched);
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
        // Windows of 2..=7 candidates: the seeded engine fetches one list
        // per class still in `T` per iteration, then all of `T` once.
        let edges = oracle_sweeps("prefetch_oracle", 1000, |case| 2 + case as usize % 6);
        // Every case of the list rule must be met.
        assert!(edges.fresh_lists >= 5000, "{edges:?}");
        assert!(edges.dead_rows_yielded >= 1000, "{edges:?}");
        assert!(edges.short_lists >= 1000, "{edges:?}");
        assert!(edges.requeried >= 50, "{edges:?}");
    }

    /// S4 (p = 12) at 500 rows with 10% class noise.
    fn pumpkin() -> Dataset {
        let clean = gb_dataset::catalog::DatasetId::S4.generate(0.2, 5);
        gb_dataset::noise::inject_class_noise(&clean, 0.1, 6).0
    }

    #[test]
    fn hood_table_is_the_same_however_the_fetch_splits() {
        // Contract 6: a fetch answers its rows in contiguous pieces, each
        // one `k_nearest_sq_par` call whose 16-row tiles run on the thread
        // pool, and a row's list must be its own query's answer whichever
        // piece and tile held it. Forcing 1, 2, 3 and 8 pieces covers the
        // splits on any number of CPUs.
        let data = pumpkin();
        let n = data.n_samples();
        for backend in GranulationBackend::CONCRETE {
            for metric in [Metric::SqEuclidean, Metric::Manhattan] {
                let table = |pieces: usize| {
                    let mut g = Granulator::new(&data, backend, metric, Vetting::Density(5), true);
                    // Shrink `U` first, so the lists skip deleted rows.
                    for row in (0..n).step_by(3) {
                        if g.is_candidate(row) {
                            g.step(row);
                        }
                    }
                    let t: Vec<usize> = (0..n).filter(|&row| g.is_candidate(row)).collect();
                    assert!(t.len() > 8 * 16, "{} rows left in T", t.len());
                    g.fetch_hoods_in(&t, pieces);
                    for &row in &t {
                        let want: Vec<u32> = g
                            .index
                            .k_nearest_sq(data.row(row), g.hoods.width, Some(row))
                            .iter()
                            .map(|hit| hit.row as u32)
                            .collect();
                        assert_eq!(g.hoods.list(row), Some(&want[..]), "row {row}");
                    }
                    (g.hoods.ids, g.hoods.lens)
                };
                let one = table(1);
                for pieces in [2, 3, 8] {
                    assert!(table(pieces) == one, "{backend}/{metric}: {pieces} pieces");
                }
            }
        }
    }

    #[test]
    fn a_rho_past_the_list_cap_fetches_nothing() {
        // `k′ = 2ρ + 2 = 66` is past `MAX_LIST`: a fetch allocates no table
        // and makes no query, and the cover is a never-fetching one's.
        let data = pumpkin();
        let n = data.n_samples();
        let new = |rho| {
            Granulator::new(
                &data,
                GranulationBackend::Brute,
                Metric::SqEuclidean,
                Vetting::Density(rho),
                true,
            )
        };
        assert!(new(31).fetches());
        let (mut asked, mut never) = (new(32), new(32));
        assert!(!asked.fetches());
        asked.fetch_hoods(&(0..n).collect::<Vec<_>>());
        for row in 0..n {
            if asked.is_candidate(row) {
                asked.fetch_hoods(&[row]);
                assert!(same(&asked.step(row), &never.step(row)), "row {row}");
            }
        }
        assert!(asked.hoods.ids.is_empty() && asked.hoods.lens.is_empty());
        assert_eq!(asked.queries.knn, never.queries.knn);
        assert_eq!(format!("{:?}", asked.balls), format!("{:?}", never.balls));
        assert_eq!(asked.noise, never.noise);
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
