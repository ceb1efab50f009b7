//! Cross-backend properties of what runs on the shared query layer: the
//! GBG++ attention peel (distance-ordered iteration) and the GBABS
//! borderline detection over RD-GBG covers produce **bit-identical**
//! output on all three concrete `NeighborIndex` backends, and the
//! borderline walk matches a per-dimension sort oracle.
//!
//! Explicit seeded loops rather than `proptest!` so each cross-backend
//! comparison is attributable to one (dataset, seed) pair, matching the
//! style of `granulation_props.rs::indexed_rdgbg_is_bit_identical_to_
//! brute_reference`.

use gb_dataset::catalog::DatasetId;
use gb_dataset::index::GranulationBackend;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gb_sampling::gbg_pp::{gbg_pp, GbgPpConfig};
use gbabs::GranularBall;
use rand::Rng;

/// The fixture set: shapes that exercise the tree regimes plus the two
/// degenerate inputs the query-layer tie-breaks must survive —
/// duplicate-point data (every distance ties, order decided purely by row
/// id) and single-class data (no heterogeneous sample ever cuts a peel).
fn fixture_datasets() -> Vec<(String, Dataset)> {
    let mut rng = rng_from_seed(0x11ea);
    let mut sets = vec![
        ("banana".to_string(), DatasetId::S5.generate(0.04, 1)),
        ("blobs".to_string(), DatasetId::S2.generate(0.12, 2)),
        ("multiclass-8d".to_string(), DatasetId::S8.generate(0.03, 3)),
    ];
    let noisy = inject_class_noise(&sets[0].1, 0.15, 4).0;
    sets.push(("banana-noisy".to_string(), noisy));
    // Duplicate points, mixed labels: k-division cannot separate them and
    // every neighbour query is one giant tie.
    let dup_n = 60;
    let dup = Dataset::from_parts(
        vec![1.25; dup_n * 2],
        (0..dup_n).map(|i| (i % 3) as u32).collect(),
        2,
        3,
    );
    sets.push(("all-duplicates".to_string(), dup));
    // A few duplicated clusters (ties inside clusters, structure between).
    let mut feats = Vec::new();
    let mut labels = Vec::new();
    for i in 0..90 {
        let c = i % 5;
        feats.extend_from_slice(&[c as f64 * 3.0, (c as f64).sin()]);
        labels.push(u32::from(c >= 3));
    }
    sets.push((
        "tied-clusters".to_string(),
        Dataset::from_parts(feats, labels, 2, 2),
    ));
    // Single class: one ball covers everything, no borderline exists.
    let single: Vec<f64> = (0..80).map(|_| rng.gen_range(-4.0..4.0)).collect();
    sets.push((
        "single-class".to_string(),
        Dataset::from_parts(single, vec![0; 40], 2, 1),
    ));
    sets
}

fn assert_covers_identical(
    name: &str,
    backend: GranulationBackend,
    a: &[GranularBall],
    b: &[GranularBall],
) {
    assert_eq!(a.len(), b.len(), "{name}: ball count differs on {backend}");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.members, y.members, "{name}: ball {i} members ({backend})");
        assert_eq!(x.label, y.label, "{name}: ball {i} label ({backend})");
        assert_eq!(x.center, y.center, "{name}: ball {i} center ({backend})");
        assert!(
            x.radius.to_bits() == y.radius.to_bits(),
            "{name}: ball {i} radius {} vs {} ({backend})",
            x.radius,
            y.radius
        );
        assert_eq!(x.center_row, y.center_row, "{name}: ball {i} ({backend})");
    }
}

#[test]
fn gbgpp_is_bit_identical_across_backends() {
    for (name, data) in fixture_datasets() {
        let reference = gbg_pp(
            &data,
            &GbgPpConfig {
                backend: GranulationBackend::Brute,
                ..GbgPpConfig::default()
            },
        );
        for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
            let cover = gbg_pp(
                &data,
                &GbgPpConfig {
                    backend,
                    ..GbgPpConfig::default()
                },
            );
            assert_covers_identical(&name, backend, &cover, &reference);
        }
        // min_ball_size routes short prefixes through the singleton path;
        // backends must agree there too.
        let reference = gbg_pp(
            &data,
            &GbgPpConfig {
                min_ball_size: 4,
                backend: GranulationBackend::Brute,
            },
        );
        for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
            let cover = gbg_pp(
                &data,
                &GbgPpConfig {
                    min_ball_size: 4,
                    backend,
                },
            );
            assert_covers_identical(&name, backend, &cover, &reference);
        }
    }
}

#[test]
fn borderline_output_is_identical_across_backends() {
    use gbabs::{gbabs, RdGbgConfig};
    for (name, data) in fixture_datasets() {
        if data.n_classes() < 2 {
            continue; // gbabs needs a boundary to sample
        }
        let cfg = RdGbgConfig {
            seed: 11,
            ..RdGbgConfig::default()
        };
        let reference = gbabs(&data, &cfg.with_backend(GranulationBackend::Brute));
        for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
            let res = gbabs(&data, &cfg.with_backend(backend));
            assert_eq!(
                res.sampled_rows, reference.sampled_rows,
                "{name}: sampled rows differ on {backend}"
            );
            assert_eq!(
                res.borderline_balls, reference.borderline_balls,
                "{name}: borderline balls differ on {backend}"
            );
        }
    }
}

/// The per-dimension sort on a float comparator, kept verbatim as the
/// oracle of `borderline_from_model`'s integer-keyed walks.
fn borderline_oracle(data: &Dataset, balls: &[GranularBall]) -> (Vec<usize>, Vec<usize>) {
    let m = balls.len();
    let p = data.n_features();
    let mut is_borderline = vec![false; m];
    let mut sampled = vec![false; data.n_samples()];
    let mut order: Vec<usize> = (0..m).collect();
    for dim in 0..p {
        order.sort_by(|&a, &b| {
            balls[a].center[dim]
                .partial_cmp(&balls[b].center[dim])
                .expect("finite centers")
                .then_with(|| a.cmp(&b))
        });
        for w in order.windows(2) {
            let (left, right) = (w[0], w[1]);
            if balls[left].label == balls[right].label {
                continue;
            }
            is_borderline[left] = true;
            is_borderline[right] = true;
            if let Some(row) = balls[left].extreme_member(data, dim, true) {
                sampled[row] = true;
            }
            if let Some(row) = balls[right].extreme_member(data, dim, false) {
                sampled[row] = true;
            }
        }
    }
    (
        (0..data.n_samples()).filter(|&r| sampled[r]).collect(),
        (0..m).filter(|&b| is_borderline[b]).collect(),
    )
}

#[test]
fn borderline_matches_the_per_dimension_sort_oracle() {
    use gbabs::{borderline_from_model, rd_gbg, RdGbgConfig};
    // Real RD-GBG covers (including tied-center degenerate inputs)...
    for (name, data) in fixture_datasets() {
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let want = borderline_oracle(&data, &model.balls);
        let got = borderline_from_model(&data, &model);
        assert_eq!(got, want, "{name}");
    }
    // ...and random hand-built covers with duplicated center coordinates,
    // where the (value, ball id) tie-break decides adjacency.
    let mut rng = rng_from_seed(42);
    for case in 0..20 {
        let p = rng.gen_range(1..4usize);
        let n_balls = rng.gen_range(2..40usize);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        let mut balls = Vec::new();
        for b in 0..n_balls {
            let center: Vec<f64> = (0..p)
                .map(|_| f64::from(rng.gen_range(-3i32..4)) * 0.5)
                .collect();
            let members: Vec<usize> = (0..rng.gen_range(1..4usize))
                .map(|m| {
                    feats.extend(center.iter().map(|c| c + m as f64 * 0.1));
                    labels.push((b % 3) as u32);
                    labels.len() - 1
                })
                .collect();
            balls.push(GranularBall {
                center,
                radius: rng.gen_range(0.0..1.0),
                label: (b % 3) as u32,
                center_row: Some(members[0]),
                members,
                purity: 1.0,
            });
        }
        let data = Dataset::from_parts(feats, labels, p, 3);
        let want = borderline_oracle(&data, &balls);
        let got = gbabs::borderline_over_balls(&data, balls);
        assert_eq!(got, want, "random cover case {case}");
    }
}
