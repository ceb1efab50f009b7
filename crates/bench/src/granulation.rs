//! Granulation ablation: RD-GBG against the prior GBG generations.
//!
//! The paper's §III argues the existing GBG family suffers from (1) balls
//! that overlap and (2) Eq.-1 balls whose members fall outside their own
//! radius, and §IV claims RD-GBG fixes both while staying pure without a
//! purity-threshold search. This runner quantifies those claims across the
//! lineage the related work surveys:
//!
//! * **RD-GBG** — the paper's method (crate `gbabs`),
//! * **k-division** — the GGBS/IGBS substrate (Xia et al. \[27\]),
//! * **2-means** — the original GBG (Xia et al. \[22\]),
//! * **GBG++** — hard-attention division (Xie et al. \[38\]).
//!
//! Reported per generator and dataset: ball count, overlapping pairs,
//! mean purity, fraction of members outside their ball's radius, and
//! generation wall-time. Regenerate with `experiments granulation`.

use crate::config::HarnessConfig;
use crate::report::{f, format_table, write_csv};
use gb_dataset::catalog::DatasetId;
use gb_dataset::index::GranulationBackend;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::derive_seed;
use gb_dataset::Dataset;
use gb_sampling::gbg_kdiv::{k_division_gbg, KDivConfig};
use gb_sampling::gbg_kmeans::{kmeans_gbg, KMeansGbgConfig};
use gb_sampling::gbg_pp::{gbg_pp, GbgPpConfig};
use gbabs::diagnostics::count_overlaps;
use gbabs::{rd_gbg, GranularBall, RdGbgConfig};
use std::time::Instant;

/// The granulation methods compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// The paper's restricted-diffusion method.
    RdGbg,
    /// Purity-threshold k-division (GGBS substrate).
    KDivision,
    /// The original 2-means GBG.
    KMeans,
    /// GBG++ hard-attention division.
    GbgPp,
}

impl Generator {
    /// All generators in lineage order (oldest first).
    pub const ALL: [Generator; 4] = [
        Generator::KMeans,
        Generator::KDivision,
        Generator::GbgPp,
        Generator::RdGbg,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Generator::RdGbg => "RD-GBG",
            Generator::KDivision => "k-division",
            Generator::KMeans => "2-means",
            Generator::GbgPp => "GBG++",
        }
    }

    /// Generates a ball cover of `data`. `backend` selects the neighbour
    /// index of RD-GBG's diffusion queries and GBG++'s attention peel
    /// (output-invariant across backends, property-tested); k-division and
    /// 2-means build no index, so it does not reach them.
    #[must_use]
    pub fn generate(
        self,
        data: &Dataset,
        seed: u64,
        backend: GranulationBackend,
    ) -> Vec<GranularBall> {
        match self {
            Generator::RdGbg => {
                rd_gbg(
                    data,
                    &RdGbgConfig {
                        seed,
                        backend,
                        ..RdGbgConfig::default()
                    },
                )
                .balls
            }
            Generator::KDivision => k_division_gbg(
                data,
                &KDivConfig {
                    seed,
                    ..KDivConfig::default()
                },
            ),
            Generator::KMeans => kmeans_gbg(
                data,
                &KMeansGbgConfig {
                    seed,
                    ..KMeansGbgConfig::default()
                },
            ),
            Generator::GbgPp => gbg_pp(
                data,
                &GbgPpConfig {
                    backend,
                    ..GbgPpConfig::default()
                },
            ),
        }
    }
}

/// Structural quality of one ball cover.
#[derive(Debug, Clone, Copy)]
pub struct CoverQuality {
    /// Number of balls.
    pub n_balls: usize,
    /// Ball pairs whose spheres overlap.
    pub overlapping_pairs: usize,
    /// Member-weighted mean purity.
    pub mean_purity: f64,
    /// Fraction of members lying strictly outside their ball's radius.
    pub members_outside: f64,
    /// Fraction of dataset rows covered by some ball (RD-GBG excludes
    /// detected noise, so this can be below 1 on noisy data).
    pub coverage: f64,
    /// Generation wall-time in milliseconds.
    pub gen_ms: f64,
}

/// Measures a cover against its dataset.
#[must_use]
pub fn measure(data: &Dataset, balls: &[GranularBall], gen_ms: f64) -> CoverQuality {
    let mut covered = vec![false; data.n_samples()];
    let mut outside = 0usize;
    let mut members = 0usize;
    let mut purity_weighted = 0.0f64;
    for b in balls {
        for &m in &b.members {
            covered[m] = true;
            if !b.contains_point(data.row(m), 1e-9) {
                outside += 1;
            }
        }
        members += b.len();
        purity_weighted += b.measured_purity(data) * b.len() as f64;
    }
    CoverQuality {
        n_balls: balls.len(),
        overlapping_pairs: count_overlaps(balls, 1e-9),
        mean_purity: purity_weighted / members.max(1) as f64,
        members_outside: outside as f64 / members.max(1) as f64,
        coverage: covered.iter().filter(|&&c| c).count() as f64 / data.n_samples().max(1) as f64,
        gen_ms,
    }
}

/// Generates with `generator` and measures the result.
#[must_use]
pub fn run_generator(
    data: &Dataset,
    generator: Generator,
    seed: u64,
    backend: GranulationBackend,
) -> CoverQuality {
    let t0 = Instant::now();
    let balls = generator.generate(data, seed, backend);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    measure(data, &balls, gen_ms)
}

/// Full granulation report across representative datasets and noise levels.
pub fn granulation(cfg: &HarnessConfig) {
    let datasets = [DatasetId::S5, DatasetId::S2, DatasetId::S6];
    let noises = [0.0, 0.20];
    let mut rows = vec![vec![
        "dataset".to_string(),
        "noise".to_string(),
        "generator".to_string(),
        "balls".to_string(),
        "overlapping pairs".to_string(),
        "mean purity".to_string(),
        "members outside".to_string(),
        "coverage".to_string(),
        "gen ms".to_string(),
    ]];
    for id in datasets {
        let base = id.generate(cfg.scale, derive_seed(cfg.seed, 91));
        for &noise in &noises {
            let d = if noise > 0.0 {
                inject_class_noise(&base, noise, derive_seed(cfg.seed, 92)).0
            } else {
                base.clone()
            };
            for generator in Generator::ALL {
                let q = run_generator(&d, generator, cfg.seed, cfg.backend);
                rows.push(vec![
                    id.rename().to_string(),
                    format!("{:.0}%", noise * 100.0),
                    generator.name().to_string(),
                    q.n_balls.to_string(),
                    q.overlapping_pairs.to_string(),
                    f(q.mean_purity),
                    f(q.members_outside),
                    f(q.coverage),
                    format!("{:.1}", q.gen_ms),
                ]);
            }
        }
    }
    println!("Granulation ablation: RD-GBG vs the prior GBG lineage");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "granulation_lineage.csv", &rows);
}

/// The sampling rules crossable with any generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingRule {
    /// GBABS borderline rule (heterogeneous adjacent centers per dimension).
    Borderline,
    /// GGBS rule (small balls whole, large balls' axis extremes).
    GgbsRule,
}

impl SamplingRule {
    /// Both rules in report order.
    pub const ALL: [SamplingRule; 2] = [SamplingRule::Borderline, SamplingRule::GgbsRule];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SamplingRule::Borderline => "borderline",
            SamplingRule::GgbsRule => "GGBS-rule",
        }
    }

    /// Applies the rule over a ball cover, returning sorted kept rows.
    #[must_use]
    pub fn apply(self, data: &Dataset, balls: Vec<GranularBall>) -> Vec<usize> {
        match self {
            SamplingRule::Borderline => gbabs::borderline_over_balls(data, balls).0,
            SamplingRule::GgbsRule => gb_sampling::ggbs::ggbs_rule_over_balls(data, &balls),
        }
    }
}

/// One cell of the generator × rule cross ablation.
#[derive(Debug, Clone, Copy)]
pub struct CrossOutcome {
    /// Mean sampling ratio over folds.
    pub ratio: f64,
    /// Mean held-out DT accuracy over folds.
    pub dt_accuracy: f64,
}

/// Evaluates one generator × rule combination with k-fold CV.
#[must_use]
pub fn run_cross(
    data: &Dataset,
    generator: Generator,
    rule: SamplingRule,
    folds: usize,
    seed: u64,
    backend: GranulationBackend,
) -> CrossOutcome {
    use gb_classifiers::ClassifierKind;
    use gb_dataset::split::stratified_k_fold;
    use gb_metrics::accuracy;

    let mut ratios = Vec::new();
    let mut accs = Vec::new();
    for (fi, fold) in stratified_k_fold(data, folds, seed).into_iter().enumerate() {
        let train = data.select(&fold.train);
        let test = data.select(&fold.test);
        let balls = generator.generate(&train, derive_seed(seed, fi as u64), backend);
        let rows = rule.apply(&train, balls);
        if rows.is_empty() {
            continue; // degenerate (single-class fold): skip
        }
        ratios.push(rows.len() as f64 / train.n_samples() as f64);
        let sampled = train.select(&rows);
        let tree = ClassifierKind::DecisionTree.fit_fast(&sampled, 0);
        accs.push(accuracy(test.labels(), &tree.predict(&test)));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    CrossOutcome {
        ratio: mean(&ratios),
        dt_accuracy: mean(&accs),
    }
}

/// Generator × sampling-rule cross ablation: separates how much of
/// GBABS's advantage comes from the RD-GBG cover vs the borderline
/// sampling rule. Regenerate with `experiments cross`.
pub fn cross_ablation(cfg: &HarnessConfig) {
    let datasets = [DatasetId::S5, DatasetId::S2, DatasetId::S9];
    let mut rows = vec![vec![
        "dataset".to_string(),
        "noise".to_string(),
        "generator".to_string(),
        "rule".to_string(),
        "sampling ratio".to_string(),
        "DT accuracy".to_string(),
    ]];
    for id in datasets {
        let base = id.generate(cfg.scale, derive_seed(cfg.seed, 93));
        for noise in [0.0, 0.20] {
            let d = if noise > 0.0 {
                inject_class_noise(&base, noise, derive_seed(cfg.seed, 94)).0
            } else {
                base.clone()
            };
            for generator in [Generator::RdGbg, Generator::KDivision] {
                for rule in SamplingRule::ALL {
                    let out = run_cross(&d, generator, rule, cfg.folds, cfg.seed, cfg.backend);
                    rows.push(vec![
                        id.rename().to_string(),
                        format!("{:.0}%", noise * 100.0),
                        generator.name().to_string(),
                        rule.name().to_string(),
                        f(out.ratio),
                        f(out.dt_accuracy),
                    ]);
                }
            }
        }
    }
    println!("Cross ablation: granulator x sampling rule (DT accuracy)");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "granulation_cross.csv", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdgbg_cover_is_clean() {
        let d = DatasetId::S5.generate(0.03, 1);
        let q = run_generator(&d, Generator::RdGbg, 0, GranulationBackend::Auto);
        assert_eq!(q.overlapping_pairs, 0, "RD-GBG must not overlap");
        assert!((q.mean_purity - 1.0).abs() < 1e-12, "RD-GBG balls are pure");
        assert_eq!(q.members_outside, 0.0, "RD-GBG is geometrically exact");
    }

    #[test]
    fn gbgpp_pure_and_exact_but_may_overlap() {
        let d = DatasetId::S5.generate(0.03, 2);
        let q = run_generator(&d, Generator::GbgPp, 0, GranulationBackend::Auto);
        assert!((q.mean_purity - 1.0).abs() < 1e-12);
        assert_eq!(q.members_outside, 0.0);
        assert!((q.coverage - 1.0).abs() < 1e-12, "GBG++ covers everything");
    }

    #[test]
    fn eq1_generators_leak_members() {
        let d = DatasetId::S5.generate(0.03, 3);
        for g in [Generator::KMeans, Generator::KDivision] {
            let q = run_generator(&d, g, 0, GranulationBackend::Auto);
            assert!(
                q.members_outside > 0.0,
                "{} mean-radius balls should leak members",
                g.name()
            );
            assert!((q.coverage - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_generators_reported_once() {
        let names: Vec<_> = Generator::ALL.iter().map(|g| g.name()).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), Generator::ALL.len());
    }

    #[test]
    fn cross_cells_produce_sane_outcomes() {
        let d = DatasetId::S5.generate(0.03, 5);
        for generator in [Generator::RdGbg, Generator::KDivision] {
            for rule in SamplingRule::ALL {
                let out = run_cross(&d, generator, rule, 3, 1, GranulationBackend::Auto);
                assert!(
                    out.ratio > 0.0 && out.ratio <= 1.0,
                    "{} x {}: ratio {}",
                    generator.name(),
                    rule.name(),
                    out.ratio
                );
                assert!(
                    out.dt_accuracy > 0.5,
                    "{} x {}: accuracy {}",
                    generator.name(),
                    rule.name(),
                    out.dt_accuracy
                );
            }
        }
    }

    #[test]
    fn borderline_rule_compresses_harder_than_ggbs_rule_on_rdgbg() {
        // On the banana surrogate the borderline rule keeps only the
        // boundary, the GGBS rule keeps per-ball extremes of ALL balls.
        let d = DatasetId::S5.generate(0.05, 6);
        let b = run_cross(
            &d,
            Generator::RdGbg,
            SamplingRule::Borderline,
            3,
            2,
            GranulationBackend::Auto,
        );
        let g = run_cross(
            &d,
            Generator::RdGbg,
            SamplingRule::GgbsRule,
            3,
            2,
            GranulationBackend::Auto,
        );
        assert!(
            b.ratio < g.ratio,
            "borderline {} vs ggbs-rule {}",
            b.ratio,
            g.ratio
        );
    }
}
