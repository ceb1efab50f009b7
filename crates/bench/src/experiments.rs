//! One runner per paper artifact (Tables I–IV, Figs. 5–11).
//!
//! Every runner prints the paper-style rows and writes CSV artifacts under
//! `cfg.out_dir`, where the measured values are recorded.

use crate::config::HarnessConfig;
use crate::eval::{evaluate, summarize};
use crate::report::{f, format_table, write_csv};
use crate::samplers::SamplerKind;
use gb_classifiers::ClassifierKind;
use gb_dataset::catalog::DatasetId;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::derive_seed;
use gb_dataset::split::stratified_subsample;
use gb_dataset::Dataset;
use gb_dataset::Metric;
use gb_metrics::ranking::ordinal_ranks;
use gb_metrics::stats::kde;
use gb_metrics::wilcoxon::wilcoxon_signed_rank;
use gb_sampling::Ggbs;
use gb_viz::svg::{grouped_bars, line_chart, save_svg, scatter_plot};
use gb_viz::tsne::{tsne_2d, TsneConfig};
use gbabs::{GbabsSampler, Sampler};

/// The class-noise grid of Figs. 6 and 9 (0 % plus the paper's five levels).
pub const NOISE_GRID: [f64; 6] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40];

fn dataset(id: DatasetId, cfg: &HarnessConfig) -> Dataset {
    id.generate(
        cfg.scale,
        derive_seed(
            cfg.seed,
            id.rename().len() as u64 * 131 + id.info().samples as u64,
        ),
    )
}

/// **Table I** — dataset details. Prints the catalog (original metadata and
/// the generated surrogate's realized shape).
pub fn table1(cfg: &HarnessConfig) {
    let mut rows = vec![vec![
        "Rename".to_string(),
        "Dataset".to_string(),
        "Samples".to_string(),
        "Features".to_string(),
        "Classes".to_string(),
        "IR".to_string(),
        "Source".to_string(),
        "Generated N".to_string(),
        "Generated IR".to_string(),
    ]];
    for id in DatasetId::ALL {
        let info = id.info();
        let d = dataset(id, cfg);
        rows.push(vec![
            id.rename().to_string(),
            info.name.to_string(),
            info.samples.to_string(),
            info.features.to_string(),
            info.classes.to_string(),
            format!("{:.2}", info.imbalance_ratio),
            info.source.to_string(),
            d.n_samples().to_string(),
            format!("{:.2}", d.imbalance_ratio()),
        ]);
    }
    println!("Table I: Details of Datasets (original vs generated surrogate)");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "table1_datasets.csv", &rows);
}

/// **Fig. 4** — the illustrative borderline-recognition panels: (a) a 2-D
/// two-class dataset, (b) its RD-GBG cover, (c) the centers, (d) the
/// borderline balls, (e) borderline balls + samples, (f) the sampled set.
/// Emits one SVG per panel.
pub fn fig4(cfg: &HarnessConfig) {
    use gb_viz::svg::{ball_plot, BallGlyph};

    let d = DatasetId::S5
        .generate((cfg.scale * 4.0).min(1.0), derive_seed(cfg.seed, 14))
        .with_name("fig4-demo");
    let res = gbabs::gbabs(
        &d,
        &gbabs::RdGbgConfig {
            seed: cfg.seed,
            backend: cfg.backend,
            ..Default::default()
        },
    );
    let points: Vec<(f64, f64, u32)> = (0..d.n_samples())
        .map(|i| (d.value(i, 0), d.value(i, 1), d.label(i)))
        .collect();
    let glyph = |b: &gbabs::GranularBall, emphasized: bool| BallGlyph {
        x: b.center[0],
        y: b.center[1],
        r: b.radius,
        label: b.label,
        emphasized,
    };
    let all: Vec<BallGlyph> = res.model.balls.iter().map(|b| glyph(b, false)).collect();
    let centers: Vec<(f64, f64, u32)> = res
        .model
        .balls
        .iter()
        .map(|b| (b.center[0], b.center[1], b.label))
        .collect();
    let borderline: Vec<BallGlyph> = res
        .borderline_balls
        .iter()
        .map(|&i| glyph(&res.model.balls[i], true))
        .collect();
    let sampled_points: Vec<(f64, f64, u32)> = res
        .sampled_rows
        .iter()
        .map(|&r| (d.value(r, 0), d.value(r, 1), d.label(r)))
        .collect();

    let panels: [(&str, String); 6] = [
        (
            "fig4a_original",
            ball_plot(&points, &[], "Fig. 4(a): original dataset"),
        ),
        (
            "fig4b_balls",
            ball_plot(&points, &all, "Fig. 4(b): RD-GBG cover"),
        ),
        (
            "fig4c_centers",
            ball_plot(&centers, &[], "Fig. 4(c): centers of all GBs"),
        ),
        (
            "fig4d_borderline",
            ball_plot(&points, &borderline, "Fig. 4(d): borderline GBs"),
        ),
        (
            "fig4e_borderline_samples",
            ball_plot(
                &sampled_points,
                &borderline,
                "Fig. 4(e): borderline GBs and samples",
            ),
        ),
        (
            "fig4f_sampled",
            ball_plot(&sampled_points, &[], "Fig. 4(f): borderline samples"),
        ),
    ];
    println!(
        "Fig. 4: {} balls, {} borderline, {} sampled rows -> SVG panels under {:?}",
        res.model.balls.len(),
        res.borderline_balls.len(),
        res.sampled_rows.len(),
        cfg.out_dir
    );
    for (name, svg) in panels {
        let path = cfg.out_dir.join(format!("{name}.svg"));
        if let Err(e) = save_svg(&path, &svg) {
            eprintln!("[fig4] could not write {}: {e}", path.display());
        }
    }
}

/// **Fig. 5** — t-SNE visualizations of S5, S1, S3, S6. Emits one CSV of
/// `(x, y, label)` per dataset.
pub fn fig5(cfg: &HarnessConfig) {
    println!(
        "Fig. 5: t-SNE 2-D embeddings (CSV per dataset under {:?})",
        cfg.out_dir
    );
    for id in [DatasetId::S5, DatasetId::S1, DatasetId::S3, DatasetId::S6] {
        let d = dataset(id, cfg);
        let keep = stratified_subsample(&d, 500, derive_seed(cfg.seed, 55));
        let sub = d.select(&keep);
        let emb = tsne_2d(
            &sub,
            &TsneConfig {
                n_iter: 400,
                seed: derive_seed(cfg.seed, 56),
                ..Default::default()
            },
        );
        let mut rows = vec![vec!["x".to_string(), "y".to_string(), "label".to_string()]];
        for (i, p) in emb.iter().enumerate() {
            rows.push(vec![
                format!("{:.4}", p[0]),
                format!("{:.4}", p[1]),
                sub.label(i).to_string(),
            ]);
        }
        let path = write_csv(
            &cfg.out_dir,
            &format!("fig5_tsne_{}.csv", id.rename()),
            &rows,
        );
        let points: Vec<(f64, f64, u32)> = emb
            .iter()
            .enumerate()
            .map(|(i, p)| (p[0], p[1], sub.label(i)))
            .collect();
        let svg = scatter_plot(&points, &format!("Fig. 5 — t-SNE of {}", id.rename()));
        let svg_path = cfg.out_dir.join(format!("fig5_tsne_{}.svg", id.rename()));
        save_svg(&svg_path, &svg).expect("write svg");
        println!(
            "  {} -> {} + .svg ({} points)",
            id.rename(),
            path.display(),
            emb.len()
        );
    }
}

/// **Fig. 6(a–f)** — sampling ratio of GBABS vs GGBS per dataset at each
/// class-noise ratio. Ratios are measured on the full (noisy) dataset, as
/// in the paper.
pub fn fig6(cfg: &HarnessConfig) {
    let mut rows = vec![vec![
        "noise".to_string(),
        "dataset".to_string(),
        "GBABS".to_string(),
        "GGBS".to_string(),
    ]];
    for &noise in &NOISE_GRID {
        println!("Fig. 6 panel — noise ratio {:.0}%:", noise * 100.0);
        let mut panel = vec![vec![
            "dataset".to_string(),
            "GBABS ratio".to_string(),
            "GGBS ratio".to_string(),
        ]];
        let mut gbabs_bars = Vec::new();
        let mut ggbs_bars = Vec::new();
        for id in DatasetId::ALL {
            let base = dataset(id, cfg);
            let d = if noise > 0.0 {
                inject_class_noise(&base, noise, derive_seed(cfg.seed, 66)).0
            } else {
                base
            };
            let seed = derive_seed(cfg.seed, 67);
            let ga = GbabsSampler {
                density_tolerance: cfg.gbabs_rho,
                backend: cfg.backend,
                metric: Metric::SqEuclidean,
            }
            .sample(&d, seed);
            let gg = Ggbs::default().sample(&d, seed);
            let (ra, rg) = (ga.ratio(&d), gg.ratio(&d));
            gbabs_bars.push(ra);
            ggbs_bars.push(rg);
            panel.push(vec![id.rename().to_string(), f(ra), f(rg)]);
            rows.push(vec![
                format!("{noise:.2}"),
                id.rename().to_string(),
                f(ra),
                f(rg),
            ]);
        }
        println!("{}", format_table(&panel));
        let cats: Vec<String> = DatasetId::ALL
            .iter()
            .map(|id| id.rename().to_string())
            .collect();
        let svg = grouped_bars(
            &cats,
            &[
                ("GBABS".to_string(), gbabs_bars),
                ("GGBS".to_string(), ggbs_bars),
            ],
            &format!("Fig. 6 — sampling ratio, noise {:.0}%", noise * 100.0),
            "sampling ratio",
        );
        let svg_path = cfg
            .out_dir
            .join(format!("fig6_ratio_noise{:02.0}.svg", noise * 100.0));
        save_svg(&svg_path, &svg).expect("write svg");
    }
    write_csv(&cfg.out_dir, "fig6_sampling_ratio.csv", &rows);
}

/// Per-dataset mean accuracies of one classifier under the Table-II method
/// set. Returned as `results[method][dataset]`.
fn method_accuracies(classifier: ClassifierKind, noise: f64, cfg: &HarnessConfig) -> Vec<Vec<f64>> {
    SamplerKind::TABLE2
        .iter()
        .map(|&m| {
            DatasetId::ALL
                .iter()
                .map(|&id| {
                    let d = dataset(id, cfg);
                    summarize(&evaluate(&d, m, classifier, noise, cfg)).accuracy
                })
                .collect()
        })
        .collect()
}

/// **Table II** — DT testing accuracy with GBABS/GGBS/SRS/none on the 13
/// standard datasets. Returns `results[method][dataset]` for Table III.
pub fn table2(cfg: &HarnessConfig) -> Vec<Vec<f64>> {
    let results = method_accuracies(ClassifierKind::DecisionTree, 0.0, cfg);
    let mut rows = vec![vec![
        "Datasets".to_string(),
        "GBABS-DT".to_string(),
        "GGBS-DT".to_string(),
        "SRS-DT".to_string(),
        "DT".to_string(),
    ]];
    for (di, id) in DatasetId::ALL.iter().enumerate() {
        rows.push(vec![
            id.rename().to_string(),
            f(results[0][di]),
            f(results[1][di]),
            f(results[2][di]),
            f(results[3][di]),
        ]);
    }
    let mut avg = vec!["Average".to_string()];
    for m in &results {
        avg.push(f(m.iter().sum::<f64>() / m.len() as f64));
    }
    rows.push(avg);
    println!("Table II: testing Accuracy of DT with different sampling methods");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "table2_dt_accuracy.csv", &rows);
    results
}

/// **Table III** — Wilcoxon signed-rank tests of GBABS-DT against the other
/// Table-II columns.
pub fn table3(cfg: &HarnessConfig, table2_results: &[Vec<f64>]) {
    let mut rows = vec![vec![
        "Comparison Method".to_string(),
        "p-value".to_string(),
        "Significance (alpha = 0.05)".to_string(),
    ]];
    let names = ["GGBS-DT", "SRS-DT", "DT"];
    for (i, name) in names.iter().enumerate() {
        let res = wilcoxon_signed_rank(&table2_results[0], &table2_results[i + 1]);
        let (p, sig) = match res {
            Ok(r) => (
                format!("{:.6}", r.p_value),
                if r.p_value < 0.05 {
                    "Significant"
                } else {
                    "Not significant"
                }
                .to_string(),
            ),
            Err(e) => (format!("n/a ({e})"), "-".to_string()),
        };
        rows.push(vec![format!("GBABS-DT vs. {name}"), p, sig]);
    }
    println!("Table III: Wilcoxon signed-rank test results");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "table3_wilcoxon.csv", &rows);
}

/// **Table IV** — average testing accuracy (over the 13 datasets) of every
/// classifier × sampling method at each class-noise ratio.
pub fn table4(cfg: &HarnessConfig) {
    let noises = [0.05, 0.10, 0.20, 0.30, 0.40];
    let mut rows = vec![{
        let mut h = vec!["Method".to_string()];
        h.extend(noises.iter().map(|n| format!("{:.0}%", n * 100.0)));
        h
    }];
    for classifier in ClassifierKind::ALL {
        // results[noise][method] = mean accuracy across datasets
        let mut per_noise: Vec<Vec<f64>> = Vec::new();
        for &noise in &noises {
            let acc = method_accuracies(classifier, noise, cfg);
            per_noise.push(
                acc.iter()
                    .map(|m| m.iter().sum::<f64>() / m.len() as f64)
                    .collect(),
            );
        }
        for (mi, m) in SamplerKind::TABLE2.iter().enumerate() {
            let label = if *m == SamplerKind::Ori {
                classifier.name().to_string()
            } else {
                format!("{}-{}", m.name(), classifier.name())
            };
            let mut row = vec![label];
            row.extend(per_noise.iter().map(|pn| f(pn[mi])));
            rows.push(row);
        }
    }
    println!("Table IV: average testing Accuracy on class noise datasets");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "table4_noise_accuracy.csv", &rows);
}

/// Shared implementation of Figs. 7 and 8: per-dataset accuracy samples for
/// one classifier at two noise ratios, plus KDE curves (the ridge plots).
fn fig_ridge(name: &str, classifier: ClassifierKind, noises: [f64; 2], cfg: &HarnessConfig) {
    let mut point_rows = vec![vec![
        "noise".to_string(),
        "method".to_string(),
        "dataset".to_string(),
        "accuracy".to_string(),
    ]];
    let mut kde_rows = vec![vec![
        "noise".to_string(),
        "method".to_string(),
        "grid".to_string(),
        "density".to_string(),
    ]];
    let grid: Vec<f64> = (0..=60).map(|i| 0.4 + i as f64 * 0.01).collect();
    let mut ridge_rows: Vec<gb_viz::svg::RidgeRow> = Vec::new();
    for &noise in &noises {
        println!(
            "{name}: accuracy distribution of {} at noise {:.0}%",
            classifier.name(),
            noise * 100.0
        );
        let mut panel = vec![vec![
            "method".to_string(),
            "per-dataset accuracies".to_string(),
        ]];
        let acc = method_accuracies(classifier, noise, cfg);
        for (mi, m) in SamplerKind::TABLE2.iter().enumerate() {
            let label = if *m == SamplerKind::Ori {
                classifier.name().to_string()
            } else {
                format!("{}-{}", m.name(), classifier.name())
            };
            for (di, id) in DatasetId::ALL.iter().enumerate() {
                point_rows.push(vec![
                    format!("{noise:.2}"),
                    label.clone(),
                    id.rename().to_string(),
                    f(acc[mi][di]),
                ]);
            }
            let dens = kde(&acc[mi], &grid);
            for (g, d) in grid.iter().zip(dens.iter()) {
                kde_rows.push(vec![
                    format!("{noise:.2}"),
                    label.clone(),
                    format!("{g:.2}"),
                    format!("{d:.5}"),
                ]);
            }
            ridge_rows.push(gb_viz::svg::RidgeRow {
                name: format!("{label} @{:.0}%", noise * 100.0),
                curve: grid.iter().copied().zip(dens.iter().copied()).collect(),
                points: acc[mi].clone(),
            });
            panel.push(vec![
                label,
                acc[mi]
                    .iter()
                    .map(|a| format!("{a:.3}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]);
        }
        println!("{}", format_table(&panel));
    }
    write_csv(&cfg.out_dir, &format!("{name}_points.csv"), &point_rows);
    write_csv(&cfg.out_dir, &format!("{name}_kde.csv"), &kde_rows);
    let svg = gb_viz::svg::ridge_plot(
        &ridge_rows,
        &format!(
            "{name}: testing-accuracy distribution, {} (noise {:.0}% / {:.0}%)",
            classifier.name(),
            noises[0] * 100.0,
            noises[1] * 100.0
        ),
        "Testing Accuracy",
    );
    let path = cfg.out_dir.join(format!("{name}_ridge.svg"));
    if let Err(e) = save_svg(&path, &svg) {
        eprintln!("[{name}] could not write {}: {e}", path.display());
    }
}

/// **Fig. 7** — accuracy distribution of XGBoost at noise 10 % and 30 %.
pub fn fig7(cfg: &HarnessConfig) {
    fig_ridge("fig7", ClassifierKind::Xgboost, [0.10, 0.30], cfg);
}

/// **Fig. 8** — accuracy distribution of RF at noise 20 % and 40 %.
pub fn fig8(cfg: &HarnessConfig) {
    fig_ridge("fig8", ClassifierKind::RandomForest, [0.20, 0.40], cfg);
}

/// **Fig. 9(a–f)** — ranking of DT testing G-mean across the eight sampling
/// methods on every dataset at every noise ratio.
pub fn fig9(cfg: &HarnessConfig) {
    let mut rows = vec![{
        let mut h = vec!["noise".to_string(), "method".to_string()];
        h.extend(DatasetId::ALL.iter().map(|id| id.rename().to_string()));
        h
    }];
    for &noise in &NOISE_GRID {
        // gmeans[method][dataset]
        let gmeans: Vec<Vec<f64>> = SamplerKind::FIG9
            .iter()
            .map(|&m| {
                DatasetId::ALL
                    .iter()
                    .map(|&id| {
                        let d = dataset(id, cfg);
                        summarize(&evaluate(&d, m, ClassifierKind::DecisionTree, noise, cfg)).g_mean
                    })
                    .collect()
            })
            .collect();
        // ranks per dataset column
        let mut ranks = vec![vec![0usize; DatasetId::ALL.len()]; SamplerKind::FIG9.len()];
        for di in 0..DatasetId::ALL.len() {
            let col: Vec<f64> = gmeans.iter().map(|m| m[di]).collect();
            for (mi, r) in ordinal_ranks(&col).into_iter().enumerate() {
                ranks[mi][di] = r;
            }
        }
        println!(
            "Fig. 9 panel — G-mean ranks (1 = best), noise {:.0}%:",
            noise * 100.0
        );
        let mut panel = vec![{
            let mut h = vec!["Method".to_string()];
            h.extend(DatasetId::ALL.iter().map(|id| id.rename().to_string()));
            h
        }];
        for (mi, m) in SamplerKind::FIG9.iter().enumerate() {
            let mut row = vec![m.name().to_string()];
            row.extend(ranks[mi].iter().map(ToString::to_string));
            panel.push(row.clone());
            let mut csv_row = vec![format!("{noise:.2}"), m.name().to_string()];
            csv_row.extend(ranks[mi].iter().map(ToString::to_string));
            rows.push(csv_row);
        }
        println!("{}", format_table(&panel));
        let method_names: Vec<String> = SamplerKind::FIG9
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        let dataset_names: Vec<String> = DatasetId::ALL
            .iter()
            .map(|id| id.rename().to_string())
            .collect();
        let svg = gb_viz::svg::rank_heatmap(
            &method_names,
            &dataset_names,
            &ranks,
            &format!("Fig. 9: DT G-mean ranks, noise {:.0}%", noise * 100.0),
        );
        let path = cfg
            .out_dir
            .join(format!("fig9_ranks_noise{:02.0}.svg", noise * 100.0));
        if let Err(e) = save_svg(&path, &svg) {
            eprintln!("[fig9] could not write {}: {e}", path.display());
        }
        // Friedman omnibus over the same matrix (scores[dataset][method]).
        let score_rows: Vec<Vec<f64>> = (0..DatasetId::ALL.len())
            .map(|di| gmeans.iter().map(|m| m[di]).collect())
            .collect();
        match gb_metrics::friedman::friedman_from_scores(&score_rows) {
            Ok(res) => {
                let cd = gb_metrics::friedman::nemenyi_critical_difference(
                    SamplerKind::FIG9.len(),
                    DatasetId::ALL.len(),
                );
                let mean_ranks: Vec<String> = SamplerKind::FIG9
                    .iter()
                    .zip(res.mean_ranks.iter())
                    .map(|(m, r)| format!("{} {r:.2}", m.name()))
                    .collect();
                println!(
                    "  Friedman chi2 = {:.3} (p = {:.4}), Iman-Davenport p = {:.4}, \
                     Nemenyi CD = {cd:.2}\n  mean ranks: {}",
                    res.chi_square,
                    res.p_value,
                    res.iman_davenport_p,
                    mean_ranks.join(", ")
                );
            }
            Err(e) => eprintln!("[fig9] Friedman skipped: {e}"),
        }
    }
    write_csv(&cfg.out_dir, "fig9_gmean_ranks.csv", &rows);
}

/// The ρ grid of Figs. 10–11.
pub const RHO_GRID: [usize; 9] = [3, 5, 7, 9, 11, 13, 15, 17, 19];

/// **Fig. 10** — density tolerance ρ vs GBABS sampling ratio per dataset.
pub fn fig10(cfg: &HarnessConfig) {
    let mut rows = vec![{
        let mut h = vec!["rho".to_string()];
        h.extend(DatasetId::ALL.iter().map(|id| id.rename().to_string()));
        h
    }];
    println!("Fig. 10: impact of density tolerance rho on sampling ratio");
    for &rho in &RHO_GRID {
        let mut row = vec![rho.to_string()];
        for id in DatasetId::ALL {
            let d = dataset(id, cfg);
            let out = GbabsSampler {
                density_tolerance: rho,
                backend: cfg.backend,
                metric: Metric::SqEuclidean,
            }
            .sample(&d, derive_seed(cfg.seed, 1010));
            row.push(f(out.ratio(&d)));
        }
        rows.push(row);
    }
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "fig10_rho_sampling_ratio.csv", &rows);
    save_rho_chart(
        cfg,
        &rows,
        "Fig. 10 — rho vs sampling ratio",
        "sampling ratio",
        "fig10_rho_sampling_ratio.svg",
    );
}

/// Renders the per-dataset series of a ρ-sweep table (rows as produced by
/// [`fig10`]/[`fig11`]) as a multi-series line chart.
fn save_rho_chart(
    cfg: &HarnessConfig,
    rows: &[Vec<String>],
    title: &str,
    y_label: &str,
    file: &str,
) {
    let mut series: Vec<(String, Vec<(f64, f64)>)> = DatasetId::ALL
        .iter()
        .map(|id| (id.rename().to_string(), Vec::new()))
        .collect();
    for row in rows.iter().skip(1) {
        let rho: f64 = row[0].parse().expect("rho column");
        for (di, s) in series.iter_mut().enumerate() {
            s.1.push((rho, row[di + 1].parse().expect("ratio cell")));
        }
    }
    let svg = line_chart(&series, title, "density tolerance rho", y_label);
    save_svg(&cfg.out_dir.join(file), &svg).expect("write svg");
}

/// **Fig. 11** — density tolerance ρ vs GBABS-DT testing accuracy.
pub fn fig11(cfg: &HarnessConfig) {
    let mut rows = vec![{
        let mut h = vec!["rho".to_string()];
        h.extend(DatasetId::ALL.iter().map(|id| id.rename().to_string()));
        h
    }];
    println!("Fig. 11: impact of density tolerance rho on testing Accuracy of DT");
    for &rho in &RHO_GRID {
        let mut sweep_cfg = cfg.clone();
        sweep_cfg.gbabs_rho = rho;
        let mut row = vec![rho.to_string()];
        for id in DatasetId::ALL {
            let d = dataset(id, cfg);
            let s = summarize(&evaluate(
                &d,
                SamplerKind::Gbabs,
                ClassifierKind::DecisionTree,
                0.0,
                &sweep_cfg,
            ));
            row.push(f(s.accuracy));
        }
        rows.push(row);
    }
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "fig11_rho_accuracy.csv", &rows);
    save_rho_chart(
        cfg,
        &rows,
        "Fig. 11 — rho vs DT accuracy",
        "testing accuracy",
        "fig11_rho_accuracy.svg",
    );
}

/// Runs the complete suite in paper order.
pub fn run_all(cfg: &HarnessConfig) {
    table1(cfg);
    fig4(cfg);
    fig5(cfg);
    fig6(cfg);
    let t2 = table2(cfg);
    table3(cfg, &t2);
    table4(cfg);
    fig7(cfg);
    fig8(cfg);
    fig9(cfg);
    fig10(cfg);
    fig11(cfg);
}

/// **Complexity check** — the paper's §IV-B3/§IV-C claims: RD-GBG's total
/// work is "much lower than O(tqN)" and GBABS overall is linear. We time
/// the full GBABS pipeline (and the k-division GBG baseline) over a
/// doubling-N sweep on the banana surrogate and report the time growth
/// factor per doubling — ~2 means linear, ~4 quadratic.
pub fn scaling_study(cfg: &HarnessConfig) {
    use std::time::Instant;

    let sizes = [0.05, 0.10, 0.20, 0.40];
    let mut rows = vec![vec![
        "N".to_string(),
        "GBABS ms".to_string(),
        "GBABS growth".to_string(),
        "k-div GBG ms".to_string(),
        "k-div growth".to_string(),
    ]];
    let mut prev: Option<(f64, f64)> = None;
    for &scale in &sizes {
        let d = DatasetId::S5.generate(scale, derive_seed(cfg.seed, 31));
        // median of 3 runs to tame timer noise
        let time_of = |f: &dyn Fn()| {
            let mut ts: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            ts[1]
        };
        let gbabs_ms = time_of(&|| {
            let _ = GbabsSampler::default().sample(&d, cfg.seed);
        });
        let kdiv_ms = time_of(&|| {
            let _ = gb_sampling::gbg_kdiv::k_division_gbg(
                &d,
                &gb_sampling::gbg_kdiv::KDivConfig::default(),
            );
        });
        let (g_growth, k_growth) = prev.map_or((f64::NAN, f64::NAN), |(pg, pk)| {
            (gbabs_ms / pg, kdiv_ms / pk)
        });
        prev = Some((gbabs_ms, kdiv_ms));
        let fmt_growth = |g: f64| {
            if g.is_nan() {
                "-".to_string()
            } else {
                format!("x{g:.2}")
            }
        };
        rows.push(vec![
            d.n_samples().to_string(),
            format!("{gbabs_ms:.1}"),
            fmt_growth(g_growth),
            format!("{kdiv_ms:.1}"),
            fmt_growth(k_growth),
        ]);
    }
    println!("Scaling check (S5 banana, doubling N; growth ~x2 = linear):");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "scaling_study.csv", &rows);
}

/// **Extension study** — SVM acceleration (the paper's §I motivation,
/// refs \[24\]–\[26\]): linear-SVM accuracy and fit time on the full
/// training fold vs the GBABS borderline sample, on clean and 20 %-noise
/// data. Not a paper artifact.
pub fn svm_study(cfg: &HarnessConfig) {
    use gb_classifiers::svm::{LinearSvm, SvmConfig};
    use gb_classifiers::Classifier as _;
    use gb_dataset::split::stratified_k_fold;
    use gb_metrics::accuracy;
    use std::time::Instant;

    let mut rows = vec![vec![
        "dataset".to_string(),
        "noise".to_string(),
        "train rows".to_string(),
        "GBABS rows".to_string(),
        "acc full".to_string(),
        "acc GBABS".to_string(),
        "fit full ms".to_string(),
        "fit GBABS ms".to_string(),
    ]];
    for id in [DatasetId::S5, DatasetId::S9, DatasetId::S10, DatasetId::S12] {
        let base = dataset(id, cfg);
        for noise in [0.0, 0.20] {
            let d = if noise > 0.0 {
                inject_class_noise(&base, noise, derive_seed(cfg.seed, 21)).0
            } else {
                base.clone()
            };
            let mut n_train = 0.0;
            let mut n_gb = 0.0;
            let (mut acc_full, mut acc_gb) = (Vec::new(), Vec::new());
            let (mut ms_full, mut ms_gb) = (0.0f64, 0.0f64);
            for (fi, fold) in stratified_k_fold(&d, cfg.folds, cfg.seed)
                .into_iter()
                .enumerate()
            {
                let train = d.select(&fold.train);
                let test = d.select(&fold.test);
                let gb = GbabsSampler {
                    density_tolerance: cfg.gbabs_rho,
                    backend: cfg.backend,
                    metric: Metric::SqEuclidean,
                }
                .sample(&train, derive_seed(cfg.seed, fi as u64));
                n_train += train.n_samples() as f64;
                n_gb += gb.dataset.n_samples() as f64;

                let t0 = Instant::now();
                let full = LinearSvm::fit(&train, &SvmConfig::default());
                ms_full += t0.elapsed().as_secs_f64() * 1e3;
                acc_full.push(accuracy(test.labels(), &full.predict(&test)));

                let t1 = Instant::now();
                let small = LinearSvm::fit(&gb.dataset, &SvmConfig::default());
                ms_gb += t1.elapsed().as_secs_f64() * 1e3;
                acc_gb.push(accuracy(test.labels(), &small.predict(&test)));
            }
            let folds = cfg.folds as f64;
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            rows.push(vec![
                id.rename().to_string(),
                format!("{:.0}%", noise * 100.0),
                format!("{:.0}", n_train / folds),
                format!("{:.0}", n_gb / folds),
                f(mean(&acc_full)),
                f(mean(&acc_gb)),
                format!("{:.1}", ms_full / folds),
                format!("{:.1}", ms_gb / folds),
            ]);
        }
    }
    println!("Extension study E2: linear-SVM acceleration via GBABS");
    println!("{}", format_table(&rows));
    write_csv(&cfg.out_dir, "svm_acceleration.csv", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal smoke config pointed at a temp dir.
    fn tiny() -> HarnessConfig {
        HarnessConfig {
            scale: 0.02,
            folds: 2,
            repeats: 1,
            out_dir: std::env::temp_dir().join("gbabs-exp-test"),
            ..HarnessConfig::smoke()
        }
    }

    #[test]
    fn table1_writes_csv() {
        let cfg = tiny();
        table1(&cfg);
        assert!(cfg.out_dir.join("table1_datasets.csv").exists());
    }

    #[test]
    fn table2_and_3_run_on_tiny_profile() {
        let cfg = tiny();
        let t2 = table2(&cfg);
        assert_eq!(t2.len(), 4);
        assert_eq!(t2[0].len(), 13);
        table3(&cfg, &t2);
        assert!(cfg.out_dir.join("table3_wilcoxon.csv").exists());
    }

    #[test]
    fn rho_grid_matches_paper() {
        assert_eq!(RHO_GRID.to_vec(), vec![3, 5, 7, 9, 11, 13, 15, 17, 19]);
        assert_eq!(NOISE_GRID[0], 0.0);
        assert_eq!(NOISE_GRID[5], 0.40);
    }

    #[test]
    fn fig4_writes_all_panels() {
        let cfg = tiny();
        fig4(&cfg);
        for panel in [
            "fig4a_original",
            "fig4b_balls",
            "fig4c_centers",
            "fig4d_borderline",
            "fig4e_borderline_samples",
            "fig4f_sampled",
        ] {
            assert!(
                cfg.out_dir.join(format!("{panel}.svg")).exists(),
                "{panel} missing"
            );
        }
    }

    #[test]
    fn svm_study_writes_csv() {
        let cfg = tiny();
        svm_study(&cfg);
        assert!(cfg.out_dir.join("svm_acceleration.csv").exists());
    }

    #[test]
    fn scaling_study_writes_csv() {
        let cfg = HarnessConfig {
            out_dir: std::env::temp_dir().join("gbabs-exp-test-scaling"),
            ..tiny()
        };
        scaling_study(&cfg);
        let csv = std::fs::read_to_string(cfg.out_dir.join("scaling_study.csv")).unwrap();
        // header + 4 sweep sizes
        assert_eq!(csv.lines().count(), 5);
    }
}
