//! RD-GBG maintenance: canonical-order granulation, and appends that
//! rebuild the canonical cover of the grown dataset.
//!
//! # Why a canonical order
//!
//! [`super::rd_gbg`] draws candidate centers with an RNG whose stream
//! depends on the evolving per-class pool sizes, so appending even one row
//! perturbs every subsequent draw. The maintenance engine therefore fixes
//! the candidate order to a **canonical sweep**: rows are considered in
//! ascending row id, each exactly once, by the same engine as the
//! stochastic one — `step.rs`'s `Granulator` (Eq. 2 density verdicts,
//! Eq. 3 heterogeneous stop, Eq. 4–6 conflict restriction, the members —
//! answered from the density hood where it proves them, see [`super`]'s
//! "Indexed hot path" — and the orphan phase). This module keeps only the
//! order. Every cover invariant of the stochastic algorithm holds
//! unchanged — purity 1.0, pairwise non-overlap, exact partition into
//! balls ∪ noise — and the output is a *pure function of the row
//! sequence and ρ*, so a maintained tenant's cover, and every prediction
//! served from it, is the same whether the rows arrived in one batch or in
//! many, and after a restart that rebuilds it from the stored rows.
//!
//! [`MaintainedModel::append`] pushes the new rows and recomputes
//! [`canonical_rd_gbg`] on the union. That is the whole maintenance step.
//! Replaying the decisions no new row could reach reused 5–9% of them on
//! e2ebench's `serve-ingest` tenant (~1,000 S8 rows, 2-row appends), which
//! saved about 4% of an in-process append and nothing measurable at the
//! server, where an append also writes a store version and rebuilds the
//! predictor. `tests/ingest_oracle.rs` checks the maintained cover against
//! a from-scratch build ball for ball across all exact backends.

use super::step::{Granulator, Vetting};
use crate::rdgbg::RdGbgModel;
use gb_dataset::distance::Metric;
use gb_dataset::index::GranulationBackend;
use gb_dataset::Dataset;

/// Canonical-order RD-GBG over `data`: every row in ascending id that is
/// still a candidate takes one step, then the orphan phase. A pure
/// function of `(row sequence, ρ)` — no RNG — producing a cover with the
/// same invariants as [`super::rd_gbg`] (purity, non-overlap, exact
/// partition) and bit-identical output across every exact backend.
///
/// # Panics
/// Panics when `rho < 2` or the dataset is empty.
#[must_use]
pub fn canonical_rd_gbg(data: &Dataset, rho: usize, backend: GranulationBackend) -> RdGbgModel {
    assert!(rho >= 2, "density tolerance must be at least 2");
    assert!(data.n_samples() > 0, "cannot granulate an empty dataset");
    // Maintenance granulates in the paper's metric only.
    let mut granulator = Granulator::new(
        data,
        backend,
        Metric::SqEuclidean,
        Vetting::Density(rho),
        true,
    );
    for row in 0..data.n_samples() {
        if granulator.is_candidate(row) {
            granulator.step(row);
        }
    }
    // The canonical engine is a single deterministic pass; `iterations` is
    // kept for envelope compatibility with the seeded engine.
    granulator.finish(1, Metric::SqEuclidean)
}

/// A granular-ball model under online maintenance: the backing dataset,
/// ρ, the neighbour-index backend and the canonical cover of the rows. The
/// serving tier keeps one of these per maintained tenant; persistence
/// stores only `(rows, labels, ρ)`, and a cold load rebuilds the cover
/// with [`MaintainedModel::build`].
#[derive(Debug, Clone)]
pub struct MaintainedModel {
    data: Dataset,
    rho: usize,
    backend: GranulationBackend,
    model: RdGbgModel,
}

impl MaintainedModel {
    /// Builds the canonical cover of `data`.
    ///
    /// # Panics
    /// Panics when `rho < 2` or the dataset is empty.
    #[must_use]
    pub fn build(data: Dataset, rho: usize, backend: GranulationBackend) -> Self {
        let model = canonical_rd_gbg(&data, rho, backend);
        Self {
            data,
            rho,
            backend,
            model,
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

    /// Appends labelled rows (`features` is row-major,
    /// `labels.len() * n_features` long) and rebuilds the canonical cover
    /// of the grown dataset. An empty batch changes nothing.
    ///
    /// # Panics
    /// Panics when the feature buffer is not `labels.len() * n_features`
    /// long or any label is `>= n_classes` — callers (the serving tier)
    /// validate first.
    pub fn append(&mut self, features: &[f64], labels: &[u32]) {
        let p = self.data.n_features();
        assert_eq!(
            features.len(),
            labels.len() * p,
            "feature buffer does not match label count"
        );
        if labels.is_empty() {
            return;
        }
        for (row, &label) in features.chunks_exact(p).zip(labels) {
            self.data.push_row(row, label);
        }
        self.model = canonical_rd_gbg(&self.data, self.rho, self.backend);
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
        maintained.append(&feats, &labels);
        assert_eq!(maintained.data().n_samples(), base.n_samples() + 3);
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
    fn duplicate_rows_stay_equal() {
        let base = DatasetId::S5.generate(0.05, 4);
        let mut maintained = MaintainedModel::build(base.clone(), 5, GranulationBackend::VpTree);
        // Exact duplicate of row 0: lies inside whatever ball absorbed it.
        let feats: Vec<f64> = base.row(0).to_vec();
        let labels = vec![base.label(0)];
        maintained.append(&feats, &labels);
        let oracle = canonical_rd_gbg(
            &union(&base, &feats, &labels),
            5,
            GranulationBackend::VpTree,
        );
        assert_models_equal(maintained.model(), &oracle, "duplicate");
    }

    #[test]
    fn empty_append_is_a_noop() {
        let data = DatasetId::S5.generate(0.05, 3);
        let mut maintained = MaintainedModel::build(data.clone(), 5, GranulationBackend::Auto);
        let before = maintained.model().clone();
        maintained.append(&[], &[]);
        assert_eq!(maintained.data().n_samples(), data.n_samples());
        assert_models_equal(maintained.model(), &before, "empty append");
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
