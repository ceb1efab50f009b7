//! Incremental RD-GBG maintenance: canonical-order granulation with a
//! decision trace, and append-with-prefix-reuse whose output is
//! **bit-identical to a from-scratch rebuild on the union dataset**.
//!
//! # Why a canonical order
//!
//! [`super::rd_gbg`] draws candidate centers with an RNG whose stream
//! depends on the evolving per-class pool sizes, so appending even one row
//! perturbs every subsequent draw — no incremental scheme can reproduce
//! the stochastic trace without redoing it. The maintenance engine
//! therefore fixes the candidate order to a **canonical sweep**: rows are
//! considered in ascending row id, each exactly once, by the same engine
//! as the stochastic one — `step.rs`'s `Granulator` (Eq. 2 density
//! verdicts, Eq. 3 heterogeneous stop, Eq. 4–6 conflict restriction, the
//! members — answered from the density hood where it proves them, see
//! [`super`]'s "Indexed hot path" — and the orphan phase). This module
//! keeps only the order, the decision trace and the influence radius.
//! Every cover invariant of the stochastic algorithm holds unchanged —
//! purity 1.0, pairwise non-overlap, exact partition into
//! balls ∪ noise — and the output is a *pure function of the row
//! sequence*, which is what makes "incremental == rebuild" a meaningful,
//! testable contract rather than an approximation.
//!
//! # Prefix reuse
//!
//! Each sweep decision records an **influence radius**: the largest
//! squared distance from the candidate the decision depends on
//! (`max(ρ-hood radius, diffusion bound)`, `∞` when fewer than ρ rows
//! remained). Answering from the hood does not change it: the step's
//! outcome is the same function of the alive set as the step that
//! queried the index for the heterogeneous stop and the members. A
//! decision is provably unchanged by rows that are all strictly farther
//! than its influence radius:
//!
//! * the ρ-neighbourhood cannot admit a farther row (new rows also carry
//!   larger row ids, so exact-tie ordering favours the old rows — and the
//!   cut test below is inclusive anyway);
//! * the member range query is bounded by the diffusion bound, which the
//!   influence radius dominates;
//! * a new heterogeneous row between the conflict radius and the old
//!   nearest-heterogeneous distance shrinks `d_het` without changing the
//!   chosen bound or the member set.
//!
//! [`MaintainedModel::append`] finds the earliest decision whose influence
//! ball contains any appended row (`d² ≤ influence²`, conservative), **replays**
//! every decision before it verbatim — tombstone deletions, conflict-ball
//! pushes, low-density marks, noise removals, no index queries — and
//! resumes the live sweep from the following row. The trace holds no
//! balls: the k-th ball decision's ball is the k-th diffusion ball of the
//! cover, and replay moves the reused balls out of the previous cover, so
//! a maintained model holds each ball once. The always-available
//! oracle is [`canonical_rd_gbg`] on the union dataset; the equivalence is
//! property-tested ball-for-ball across all exact backends in
//! `tests/ingest_oracle.rs`.

use super::step::{DecisionKind, Granulator, Vetting};
use crate::ball::GranularBall;
use crate::rdgbg::RdGbgModel;
use gb_dataset::distance::{sq_euclidean, Metric};
use gb_dataset::index::GranulationBackend;
use gb_dataset::Dataset;

/// One replayable decision of the canonical sweep. The k-th `Ball`
/// decision's ball is the k-th diffusion ball of the cover, so the trace
/// holds no ball of its own.
#[derive(Debug, Clone)]
struct Decision {
    /// Candidate row id (decisions are strictly ascending in `row`).
    row: usize,
    /// Squared influence radius: appended rows strictly farther than this
    /// from the candidate cannot change the decision. `∞` when the
    /// ρ-neighbourhood was not full.
    influence_sq: f64,
    /// The `h == 1` noisy nearest neighbour removed *before* diffusion.
    noisy_neighbor: Option<usize>,
    kind: DecisionKind,
}

/// The canonical sweep over `data`. It first replays `trace` — the clean
/// prefix of a previous trace — with no index queries: each decision's
/// noise removals, `L` mark or ball, a `Ball` decision taking the next of
/// `reused`, the previous cover's balls in order. The live sweep then
/// resumes after the prefix, one decision per candidate row, and the
/// granulator finishes the cover. Returns the cover and the full trace.
fn sweep(
    data: &Dataset,
    rho: usize,
    backend: GranulationBackend,
    mut trace: Vec<Decision>,
    reused: Vec<GranularBall>,
) -> (RdGbgModel, Vec<Decision>) {
    assert!(rho >= 2, "density tolerance must be at least 2");
    assert!(data.n_samples() > 0, "cannot granulate an empty dataset");
    // The maintenance engine granulates in the paper's metric only — its
    // influence-radius algebra is squared-Euclidean.
    let mut granulator = Granulator::new(
        data,
        backend,
        Metric::SqEuclidean,
        Vetting::Density(rho),
        true,
    );
    let mut reused = reused.into_iter();
    for d in &trace {
        if let Some(bad) = d.noisy_neighbor {
            granulator.discard(bad);
        }
        match d.kind {
            DecisionKind::Ball => {
                granulator.absorb(reused.next().expect("one reused ball per Ball decision"));
            }
            DecisionKind::LowDensity => granulator.defer(d.row),
            DecisionKind::CandidateNoise => granulator.discard(d.row),
        }
    }
    let start_row = trace.last().map_or(0, |d| d.row + 1);
    for row in start_row..data.n_samples() {
        if !granulator.is_candidate(row) {
            continue;
        }
        // The step's reach (the ρ-hood radius, `∞` when the hood was not
        // full: any appended row could then join it) and its diffusion
        // bound are everything the decision looked at.
        let step = granulator.step(row);
        trace.push(Decision {
            row,
            influence_sq: step.bound.map_or(step.reach, |b| step.reach.max(b)),
            noisy_neighbor: step.noisy_neighbor,
            kind: step.kind,
        });
    }
    // Orphans are not part of the trace (a later append can absorb them),
    // so `finish` recomputes them on every build. The canonical engine is a
    // single deterministic pass; `iterations` is kept for envelope
    // compatibility with the seeded engine.
    (granulator.finish(1, Metric::SqEuclidean), trace)
}

/// Canonical-order RD-GBG over `data`: the **full-rebuild oracle** of the
/// maintenance path. A pure function of `(row sequence, ρ)` — no RNG —
/// producing a cover with the same invariants as [`super::rd_gbg`]
/// (purity, non-overlap, exact partition) and bit-identical output across
/// every exact backend.
///
/// # Panics
/// Panics when `rho < 2` or the dataset is empty.
#[must_use]
pub fn canonical_rd_gbg(data: &Dataset, rho: usize, backend: GranulationBackend) -> RdGbgModel {
    sweep(data, rho, backend, Vec::new(), Vec::new()).0
}

/// Telemetry of one [`MaintainedModel::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendStats {
    /// Rows appended by this call.
    pub appended: usize,
    /// Sweep decisions replayed verbatim from the previous trace.
    pub reused_decisions: usize,
    /// Sweep decisions recomputed by the live sweep (dirty region + new
    /// rows).
    pub recomputed_decisions: usize,
    /// Diffusion balls carried over unchanged.
    pub reused_balls: usize,
    /// Diffusion balls produced by the live sweep.
    pub rebuilt_balls: usize,
    /// `true` when no prefix could be reused (equivalent work to the
    /// oracle rebuild).
    pub full_rebuild: bool,
}

/// A granular-ball model under online maintenance: the backing dataset,
/// the canonical-order cover, and the decision trace that makes appends
/// incremental. The serving tier keeps one of these per maintained tenant;
/// persistence stores only `(rows, labels, ρ)` — the trace is rebuilt
/// deterministically on cold load via [`MaintainedModel::build`].
#[derive(Debug, Clone)]
pub struct MaintainedModel {
    data: Dataset,
    rho: usize,
    backend: GranulationBackend,
    model: RdGbgModel,
    trace: Vec<Decision>,
}

impl MaintainedModel {
    /// Builds the canonical cover of `data` from scratch and retains the
    /// decision trace for future appends.
    ///
    /// # Panics
    /// Panics when `rho < 2` or the dataset is empty.
    #[must_use]
    pub fn build(data: Dataset, rho: usize, backend: GranulationBackend) -> Self {
        let (model, trace) = sweep(&data, rho, backend, Vec::new(), Vec::new());
        Self {
            data,
            rho,
            backend,
            model,
            trace,
        }
    }

    /// The current cover (bit-identical to
    /// [`canonical_rd_gbg`]`(self.data(), self.rho(), backend)`).
    #[must_use]
    pub fn model(&self) -> &RdGbgModel {
        &self.model
    }

    /// The backing dataset (initial rows + every appended row, in arrival
    /// order).
    #[must_use]
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Density tolerance ρ the cover is maintained under.
    #[must_use]
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// Neighbour-index backend the sweep queries run against (the cover is
    /// backend-invariant; this only selects the query structure).
    #[must_use]
    pub fn backend(&self) -> GranulationBackend {
        self.backend
    }

    /// Appends labelled rows (`features` is row-major,
    /// `labels.len() * n_features` long) and re-granulates the dirty
    /// region: the longest clean prefix of the decision trace is replayed
    /// verbatim and the canonical sweep resumes after it.
    ///
    /// # Panics
    /// Panics when the feature buffer is not `labels.len() * n_features`
    /// long or any label is `>= n_classes` — callers (the serving tier)
    /// validate first.
    pub fn append(&mut self, features: &[f64], labels: &[u32]) -> AppendStats {
        let p = self.data.n_features();
        assert_eq!(
            features.len(),
            labels.len() * p,
            "feature buffer does not match label count"
        );
        if labels.is_empty() {
            return AppendStats {
                appended: 0,
                reused_decisions: self.trace.len(),
                recomputed_decisions: 0,
                reused_balls: self.model.balls.len() - self.model.orphan_count,
                rebuilt_balls: 0,
                full_rebuild: false,
            };
        }
        for (row, &label) in features.chunks_exact(p).zip(labels) {
            self.data.push_row(row, label);
        }

        // Cut: earliest decision whose influence ball contains any new
        // row (inclusive — exact ties conservatively invalidate).
        let new_rows: Vec<&[f64]> = features.chunks_exact(p).collect();
        let cut = self
            .trace
            .iter()
            .position(|d| {
                d.influence_sq.is_infinite()
                    || new_rows
                        .iter()
                        .any(|r| sq_euclidean(self.data.row(d.row), r) <= d.influence_sq)
            })
            .unwrap_or(self.trace.len());

        let reused_balls = self.trace[..cut]
            .iter()
            .filter(|d| d.kind == DecisionKind::Ball)
            .count();
        // Replay moves the clean prefix's balls out of the old cover.
        let mut prefix = std::mem::take(&mut self.trace);
        prefix.truncate(cut);
        let mut reused = std::mem::take(&mut self.model.balls);
        reused.truncate(reused_balls);
        (self.model, self.trace) = sweep(&self.data, self.rho, self.backend, prefix, reused);
        AppendStats {
            appended: labels.len(),
            reused_decisions: cut,
            recomputed_decisions: self.trace.len() - cut,
            reused_balls,
            rebuilt_balls: self.model.balls.len() - self.model.orphan_count - reused_balls,
            full_rebuild: cut == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    fn assert_models_equal(a: &RdGbgModel, b: &RdGbgModel, ctx: &str) {
        assert_eq!(a.noise, b.noise, "{ctx}: noise");
        assert_eq!(a.orphan_count, b.orphan_count, "{ctx}: orphans");
        assert_eq!(a.balls.len(), b.balls.len(), "{ctx}: ball count");
        for (i, (x, y)) in a.balls.iter().zip(&b.balls).enumerate() {
            assert_eq!(x.members, y.members, "{ctx}: ball {i} members");
            assert_eq!(
                x.radius.to_bits(),
                y.radius.to_bits(),
                "{ctx}: ball {i} radius"
            );
            assert_eq!(x.label, y.label, "{ctx}: ball {i} label");
            assert_eq!(x.center, y.center, "{ctx}: ball {i} center");
        }
    }

    fn union(base: &Dataset, feats: &[f64], labels: &[u32]) -> Dataset {
        let mut u = base.clone();
        for (row, &l) in feats.chunks_exact(base.n_features()).zip(labels) {
            u.push_row(row, l);
        }
        u
    }

    #[test]
    fn canonical_build_satisfies_cover_invariants() {
        let data = DatasetId::S5.generate(0.05, 3);
        let model = canonical_rd_gbg(&data, 5, GranulationBackend::Auto);
        crate::diagnostics::verify_rdgbg_invariants(&data, &model).unwrap();
    }

    #[test]
    fn canonical_build_is_backend_invariant() {
        let data = DatasetId::S2.generate(0.1, 6);
        let reference = canonical_rd_gbg(&data, 5, GranulationBackend::Brute);
        for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
            let model = canonical_rd_gbg(&data, 5, backend);
            assert_models_equal(&model, &reference, &format!("{backend}"));
        }
    }

    #[test]
    fn append_matches_oracle_on_catalog_data() {
        let base = DatasetId::S5.generate(0.05, 3);
        let mut maintained = MaintainedModel::build(base.clone(), 5, GranulationBackend::Auto);
        // Rows near the existing mass, plus a far outlier.
        let feats = vec![0.1, 0.2, 0.15, 0.22, 50.0, 50.0];
        let labels = vec![0, 1, 0];
        let stats = maintained.append(&feats, &labels);
        assert_eq!(stats.appended, 3);
        let oracle = canonical_rd_gbg(&union(&base, &feats, &labels), 5, GranulationBackend::Auto);
        assert_models_equal(maintained.model(), &oracle, "append vs oracle");
        crate::diagnostics::verify_rdgbg_invariants(maintained.data(), maintained.model()).unwrap();
    }

    #[test]
    fn repeated_appends_stay_equal_to_oracle() {
        let base = DatasetId::S5.generate(0.08, 9);
        let mut maintained = MaintainedModel::build(base.clone(), 5, GranulationBackend::KdTree);
        let mut all_feats: Vec<f64> = Vec::new();
        let mut all_labels: Vec<u32> = Vec::new();
        let mut seed = 77u64;
        for round in 0..4 {
            let mut feats = Vec::new();
            let mut labels = Vec::new();
            for i in 0..3 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (seed >> 33) as f64 / (1u64 << 31) as f64;
                feats.push(a * 2.0 - 0.5);
                feats.push((i as f64).mul_add(0.3, a));
                labels.push((round + i) as u32 % 2);
            }
            maintained.append(&feats, &labels);
            all_feats.extend_from_slice(&feats);
            all_labels.extend_from_slice(&labels);
            let oracle = canonical_rd_gbg(
                &union(&base, &all_feats, &all_labels),
                5,
                GranulationBackend::KdTree,
            );
            assert_models_equal(maintained.model(), &oracle, &format!("round {round}"));
        }
    }

    #[test]
    fn duplicate_rows_force_a_cut_and_stay_equal() {
        let base = DatasetId::S5.generate(0.05, 4);
        let mut maintained = MaintainedModel::build(base.clone(), 5, GranulationBackend::VpTree);
        // Exact duplicate of row 0: lies inside whatever ball absorbed it.
        let feats: Vec<f64> = base.row(0).to_vec();
        let labels = vec![base.label(0)];
        let stats = maintained.append(&feats, &labels);
        assert!(
            stats.recomputed_decisions > 0,
            "a duplicate inside the cover must dirty at least one decision"
        );
        let oracle = canonical_rd_gbg(
            &union(&base, &feats, &labels),
            5,
            GranulationBackend::VpTree,
        );
        assert_models_equal(maintained.model(), &oracle, "duplicate");
    }

    #[test]
    fn far_outlier_reuses_the_whole_prefix() {
        let base = DatasetId::S5.generate(0.05, 4);
        let mut maintained = MaintainedModel::build(base.clone(), 5, GranulationBackend::Auto);
        let n_decisions = maintained.trace.len();
        // Far from every influence ball with a finite radius.
        let (feats, labels) = ([1e6, 1e6], [0]);
        let stats = maintained.append(&feats, &labels);
        assert_eq!(
            (stats.reused_decisions, stats.rebuilt_balls),
            (n_decisions, 0),
            "a far outlier should replay every decision and ball ({stats:?})"
        );
        let oracle = canonical_rd_gbg(&union(&base, &feats, &labels), 5, GranulationBackend::Auto);
        assert_models_equal(maintained.model(), &oracle, "far outlier");
    }

    #[test]
    fn empty_append_is_a_noop() {
        let data = DatasetId::S5.generate(0.05, 3);
        let mut maintained = MaintainedModel::build(data, 5, GranulationBackend::Auto);
        let before = maintained.model().balls.len();
        let stats = maintained.append(&[], &[]);
        assert_eq!(stats.appended, 0);
        assert!(!stats.full_rebuild);
        assert_eq!(maintained.model().balls.len(), before);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn rejects_out_of_range_labels() {
        let data = DatasetId::S5.generate(0.05, 3);
        let mut maintained = MaintainedModel::build(data, 5, GranulationBackend::Auto);
        let n_classes = maintained.data().n_classes();
        maintained.append(&[0.0, 0.0], &[n_classes as u32]);
    }
}
