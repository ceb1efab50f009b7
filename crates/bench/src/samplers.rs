//! Registry of the eight sampling methods of the paper's evaluation.

use gb_dataset::index::GranulationBackend;
use gb_dataset::Dataset;
use gb_dataset::Metric;
use gb_sampling::{BorderlineSmote, Ggbs, Igbs, Smote, SmoteNc, Srs, TomekLinks};
use gbabs::{GbabsSampler, NoSampling, SampleResult, Sampler};

/// The sampling methods of the paper's §V, in Fig. 9 row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplerKind {
    /// The paper's method.
    Gbabs,
    /// GB-based general sampling baseline.
    Ggbs,
    /// GB-based imbalanced sampling baseline.
    Igbs,
    /// SMOTENC.
    Smnc,
    /// Tomek links.
    Tomek,
    /// SMOTE.
    Sm,
    /// Borderline-SMOTE.
    Bsm,
    /// No sampling ("Ori").
    Ori,
    /// Simple random sampling (ratio tied to GBABS).
    Srs,
}

impl SamplerKind {
    /// The eight methods of Fig. 9 (SRS excluded there).
    pub const FIG9: [SamplerKind; 8] = [
        SamplerKind::Gbabs,
        SamplerKind::Ggbs,
        SamplerKind::Igbs,
        SamplerKind::Smnc,
        SamplerKind::Tomek,
        SamplerKind::Sm,
        SamplerKind::Bsm,
        SamplerKind::Ori,
    ];

    /// The four methods of Tables II/IV.
    pub const TABLE2: [SamplerKind; 4] = [
        SamplerKind::Gbabs,
        SamplerKind::Ggbs,
        SamplerKind::Srs,
        SamplerKind::Ori,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::Gbabs => "GBABS",
            SamplerKind::Ggbs => "GGBS",
            SamplerKind::Igbs => "IGBS",
            SamplerKind::Smnc => "SMNC",
            SamplerKind::Tomek => "Tomek",
            SamplerKind::Sm => "SM",
            SamplerKind::Bsm => "BSM",
            SamplerKind::Ori => "Ori",
            SamplerKind::Srs => "SRS",
        }
    }

    /// Runs the method on a training fold with the paper's default ρ = 5
    /// and the `Auto` granulation backend.
    #[must_use]
    pub fn sample(self, train: &Dataset, seed: u64, srs_ratio: f64) -> SampleResult {
        self.sample_with_rho(train, seed, srs_ratio, 5, GranulationBackend::Auto)
    }

    /// Runs the method on a training fold. `srs_ratio` is the ratio SRS
    /// should match (the paper ties it to GBABS's ratio on that dataset);
    /// `gbabs_rho` is GBABS's density tolerance (the Fig. 10/11 sweep
    /// variable). `backend` is GBABS's neighbour index (output-invariant);
    /// the other methods take no backend.
    #[must_use]
    pub fn sample_with_rho(
        self,
        train: &Dataset,
        seed: u64,
        srs_ratio: f64,
        gbabs_rho: usize,
        backend: GranulationBackend,
    ) -> SampleResult {
        match self {
            SamplerKind::Gbabs => GbabsSampler {
                density_tolerance: gbabs_rho,
                backend,
                metric: Metric::SqEuclidean,
            }
            .sample(train, seed),
            SamplerKind::Ggbs => Ggbs::default().sample(train, seed),
            SamplerKind::Igbs => Igbs::default().sample(train, seed),
            SamplerKind::Smnc => SmoteNc::default().sample(train, seed),
            SamplerKind::Tomek => TomekLinks::default().sample(train, seed),
            SamplerKind::Sm => Smote::default().sample(train, seed),
            SamplerKind::Bsm => BorderlineSmote::default().sample(train, seed),
            SamplerKind::Ori => NoSampling.sample(train, seed),
            SamplerKind::Srs => {
                Srs::new(srs_ratio.clamp(f64::MIN_POSITIVE, 1.0)).sample(train, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    #[test]
    fn every_kind_runs_on_a_small_dataset() {
        let d = DatasetId::S9.generate(0.03, 1);
        for kind in SamplerKind::FIG9.iter().chain([SamplerKind::Srs].iter()) {
            let out = kind.sample(&d, 0, 0.5);
            assert!(
                out.dataset.n_samples() > 0,
                "{} produced empty output",
                kind.name()
            );
            assert_eq!(out.dataset.n_features(), d.n_features());
        }
    }

    #[test]
    fn names_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in SamplerKind::FIG9 {
            assert!(seen.insert(k.name()));
        }
        assert!(seen.insert(SamplerKind::Srs.name()));
    }
}
