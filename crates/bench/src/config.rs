//! Harness configuration.
//!
//! The paper's full protocol (5×5-fold CV, 100-round boosters, full-size
//! datasets) is available behind `--full`; the default profile shrinks
//! datasets and booster budgets so the whole table/figure suite regenerates
//! in minutes on a laptop. Scaling down changes absolute numbers, not the
//! qualitative orderings the reproduction targets.

use gb_dataset::index::GranulationBackend;
use std::path::PathBuf;

/// Global experiment parameters.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Fraction of each dataset's original size to generate (1.0 = paper).
    pub scale: f64,
    /// Cross-validation folds (paper: 5).
    pub folds: usize,
    /// CV repetitions (paper: 5).
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
    /// Use reduced booster/forest budgets (30 rounds instead of 100).
    pub fast_classifiers: bool,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Worker threads for fold-level parallelism.
    pub threads: usize,
    /// GBABS density tolerance ρ (paper default 5; swept by Figs. 10–11).
    pub gbabs_rho: usize,
    /// Neighbour-index backend for every RD-GBG granulation the harness
    /// runs. All backends produce identical results (property-tested);
    /// this knob lets experiments compare their wall-clock.
    pub backend: GranulationBackend,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            folds: 5,
            repeats: 2,
            seed: 42,
            fast_classifiers: true,
            out_dir: PathBuf::from("target/experiments"),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            gbabs_rho: 5,
            backend: GranulationBackend::Auto,
        }
    }
}

impl HarnessConfig {
    /// The paper-fidelity profile: full-size datasets, 5×5-fold CV, default
    /// library budgets. Expect hours of wall-clock.
    #[must_use]
    pub fn full() -> Self {
        Self {
            scale: 1.0,
            folds: 5,
            repeats: 5,
            fast_classifiers: false,
            ..Self::default()
        }
    }

    /// A fast smoke profile for CI and tests.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            scale: 0.03,
            folds: 3,
            repeats: 1,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_cost() {
        let smoke = HarnessConfig::smoke();
        let default = HarnessConfig::default();
        let full = HarnessConfig::full();
        assert!(smoke.scale < default.scale);
        assert!(default.scale < full.scale);
        assert!(full.repeats >= default.repeats);
        assert!(!full.fast_classifiers);
    }
}
