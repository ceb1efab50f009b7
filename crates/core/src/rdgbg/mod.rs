//! RD-GBG — Restricted Diffusion-based Granular-Ball Generation
//! (Algorithm 1 of the paper).
//!
//! The dataset starts as the *undivided set* `U`. Each global iteration
//! draws one random candidate center per class still present in `U − L`
//! (largest classes first), vets each candidate with the local-density rules
//! (Eq. 2), grows a pure ball around every surviving center by diffusion
//! stopped at the first heterogeneous sample (Eq. 3) and at the surface of
//! every previously built ball (Eqs. 4–6), and removes the covered samples
//! from `U`. Iteration ends when every undivided sample is low-density
//! (`U ⊆ L`); the leftovers become radius-0 *orphan* balls.
//!
//! # Indexed hot path
//!
//! The naive implementation scans all of `U` per candidate — `O(n²·d)`
//! overall. Here every per-candidate query runs against a
//! [`NeighborIndex`](gb_dataset::index::NeighborIndex) chosen by
//! [`RdGbgConfig::backend`], and rows leave `U` by **tombstone deletion**
//! instead of list rewriting. Distances stay **squared** until a ball
//! radius is finalized (one `sqrt` per ball, not one per pair). All
//! backends are exact with identical `(distance, row)` tie-breaks, so the
//! produced model is **bit-identical across backends and thread counts**
//! (property-tested in `tests/granulation_props.rs`); candidate-selection
//! RNG draws depend only on the evolving `U − L` sets, never on the
//! backend.
//!
//! Each candidate starts from its density hood `H`, the ρ nearest alive
//! rows (`k = 1` under the noise-detection ablation), which decides the
//! Eq.-2 verdict. Every alive row outside `H` lies at least
//! `reach` away — `H`'s last distance, or `+∞` when fewer than `k` rows
//! remained — so the same hood, less the noisy neighbour the verdict
//! deleted, usually settles the rest of the step too:
//!
//! 1. the **heterogeneous stop** (Eq. 3) is the hood's first row of
//!    another label; with none, it is at least `reach`, which is exact
//!    when the hood was complete and does not matter when the conflict
//!    radius (Eq. 4) is below `reach` (the conflict bound then binds);
//! 2. the **members** are the hood's rows inside the bound whenever the
//!    bound cannot admit a row outside the hood: a strict bound `≤ reach`
//!    or an inclusive one `< reach`.
//!
//! Only when a rule does not apply does the step ask the index
//! (`nearest_heterogeneous_sq`, `range_sq`). The rules are exact, not
//! heuristics: every backend returns a row's kernel distance
//! bit-identically from every query kind, so the hood's distances are the
//! ones the skipped queries would have returned and the covers are the
//! same bit for bit (pinned by `tests/rdgbg_golden.rs`; a test oracle that
//! always runs both queries agrees with the step on every candidate of
//! tie-heavy inputs). The per-iteration [`ProgressEvent::Granulate`]
//! reports how many queries of each kind ran.
//!
//! Each candidate's hood comes from a **hood table** where the seeded
//! engine fetched one: each fetched row's `k′ = 2k + 2` nearest alive rows
//! at fetch time, kept as row ids in one flat `n × k′` table (distances
//! are recomputed with [`Metric::pair`], which kernel contract v2 makes
//! bit-identical to every scan). A step's hood is the first `k` alive rows
//! of its list, or every alive row of a list shorter than `k′` (one that
//! held every other alive row); only a list with fewer than `k` alive rows
//! left sends the step to the index. That is exact: rows only ever leave
//! `U`, so a row outside the list stays beyond every row in it. The `k + 2`
//! rows of slack keep most lists usable after nearby rows left: at ρ = 5,
//! lists of exactly `k` rows sent 4–48% of the fetched rows back to the
//! index and granulated up to 3.6× slower (BENCH_GRANULATION.json entry 8).
//!
//! A fetch of many rows is one
//! [`self_join`](gb_dataset::index::self_join) of the fetched rows
//! against the alive rows where that pays: it measures each pair of
//! fetched rows once, for both rows' lists, in row blocks on the thread
//! pool, where one query per row measures every pair it does not prune
//! from both ends. Fetches come in two phases:
//!
//! 1. until the first iteration that grows no diffusion ball, each
//!    iteration's candidates (one per class) are fetched together, only
//!    on a brute index, which would otherwise read all alive rows once per
//!    candidate (a tree's single queries prune, and gain nothing from a
//!    fetch that small); the join answers so few rows with one pass over
//!    the brute index's packed alive rows;
//! 2. after that iteration, every row still in `T` is fetched once. By
//!    then balls have stopped swallowing rows wholesale, so most of those
//!    lists are still usable when their row is drawn; fetching all of `T`
//!    up front lost on clean blobs, where early big balls swallow rows
//!    whose lists were already fetched (BENCH_GRANULATION.json entry 8).
//!    The brute index and the trees from eight features up fetch `T` in
//!    one self-join, at any size of `T` and thread count. Below eight
//!    features a tree's queries prune most rows and beat the join, which
//!    measures every pair, so there `T` is fetched by one tree query per
//!    row on the thread pool, and only with a second thread and at least
//!    1,024 rows in `T` (a query of the longer `k′`-list is more work than
//!    the step's own, which only a second thread repays; BENCH_GRANULATION
//!    entries 8 and 9).
//!
//! Three cases never fetch: sub-lane rows (fewer than four features, the
//! kernel lane width, where a fetch has no vector work to share and lost
//! on banana), the canonical order (so `/rows` appends are unchanged), and
//! a ρ with `2ρ + 2 > 64`, which would size the table by a ρ that
//! `POST /sample` takes from request bodies. `knn_queries` counts one
//! query per fetched row plus one per step no list served.
//!
//! # One engine, two candidate orders
//!
//! The engine is `step.rs`'s `Granulator`: it holds `U`, `L`, the noise
//! list and the diffusion balls, applies every step's decision itself and
//! runs the orphan phase. This module supplies the paper's seeded order —
//! per-class candidate pools, the RNG draws, the conflict-bounded count
//! and the progress events; [`incremental`] supplies the canonical order
//! (ascending row id), under which every append rebuilds the cover of the
//! grown dataset.
//!
//! Properties guaranteed by construction (and property-tested):
//! * every ball is pure (purity 1.0),
//! * balls never overlap,
//! * every input row ends up in exactly one ball or in the detected-noise
//!   list.

pub mod incremental;
mod step;

use crate::ball::GranularBall;
use gb_dataset::distance::{l2_normalize_rows, Metric};
use gb_dataset::index::GranulationBackend;
use gb_dataset::rng::rng_from_seed;
use gb_dataset::Dataset;
use gb_obs::ProgressEvent;
use rand::Rng;
use std::time::Instant;
use step::{DecisionKind, Granulator, Vetting};

/// Optional per-iteration progress sink (see [`rd_gbg_with_progress`]).
pub type ProgressSink<'a> = &'a mut dyn FnMut(&ProgressEvent);

/// Configuration for RD-GBG.
#[derive(Debug, Clone, Copy)]
pub struct RdGbgConfig {
    /// Density tolerance ρ: size of the neighbourhood inspected when a
    /// candidate center's nearest neighbour is heterogeneous. The paper
    /// sweeps 3–19 (Figs. 10–11) and uses 5 as the working value.
    pub density_tolerance: usize,
    /// Seed for candidate-center selection.
    pub seed: u64,
    /// Enforce the conflict-radius restriction (Eqs. 4–6). Disabling it is
    /// an *ablation* of the paper's contribution 1: balls grow to their
    /// locally consistent radius regardless of previously built balls, so
    /// spheres may overlap (samples are still claimed exactly once).
    pub restrict_overlap: bool,
    /// Apply the local-density noise-removal rules (Eq. 2). Disabling it is
    /// an *ablation* of contribution 2: candidates whose nearest neighbour
    /// is heterogeneous are routed to the low-density set instead of
    /// triggering removals.
    pub detect_noise: bool,
    /// Neighbour-index backend for the granulation hot path. Every backend
    /// yields a bit-identical model; this only selects the asymptotics.
    pub backend: GranulationBackend,
    /// Distance metric for granulation. Manhattan granulates with L1
    /// distances throughout (radii are L1 radii); cosine granulates over an
    /// L2-normalized copy of the rows — chord geometry on the unit sphere —
    /// and the model stores **normalized** centers.
    pub metric: Metric,
}

impl Default for RdGbgConfig {
    fn default() -> Self {
        Self {
            density_tolerance: 5,
            seed: 0,
            restrict_overlap: true,
            detect_noise: true,
            backend: GranulationBackend::Auto,
            metric: Metric::SqEuclidean,
        }
    }
}

impl RdGbgConfig {
    /// Paper-default config with an explicit ρ.
    #[must_use]
    pub fn with_rho(density_tolerance: usize) -> Self {
        Self {
            density_tolerance,
            ..Self::default()
        }
    }

    /// Builder-style backend override.
    #[must_use]
    pub fn with_backend(mut self, backend: GranulationBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style metric override.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }
}

/// Output of RD-GBG: the ball cover plus bookkeeping.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RdGbgModel {
    /// All generated balls (diffusion balls first, then orphan balls).
    pub balls: Vec<GranularBall>,
    /// Rows removed as detected class noise (member of no ball).
    pub noise: Vec<usize>,
    /// Number of balls created in the orphan phase (radius 0).
    pub orphan_count: usize,
    /// Number of global iterations executed.
    pub iterations: usize,
    /// Metric the cover was granulated under. Radii are rank-space
    /// distances in this metric; cosine covers hold **normalized** centers
    /// (radii are chords). Absent in models stored before contract v2 →
    /// squared Euclidean.
    #[serde(default)]
    pub metric: Metric,
}

impl RdGbgModel {
    /// Ball centers with labels, in generation order — the center set `C`
    /// consumed by GBABS.
    #[must_use]
    pub fn centers(&self) -> Vec<(&[f64], u32)> {
        self.balls
            .iter()
            .map(|b| (b.center.as_slice(), b.label))
            .collect()
    }
}

/// `T = U − L` as one rank-select pool per class, each over that class's
/// rows only (rows only ever leave). `draw` picks one candidate per class
/// still in `T`, larger classes first: the k-th remaining row of the class
/// in **ascending row order** for a uniform `k` — the element
/// `groups[class][k]` a naive per-iteration grouping pass would produce,
/// so the RNG draws and the covers are that pass's. A removal costs
/// `O(log n)`, a draw `O(log n)` per class still in `T`, and the pools
/// take `O(n)` memory whatever the class count.
struct CandidatePools<'d> {
    labels: &'d [u32],
    pools: Vec<ClassPool>,
    /// Each row's position in its class's pool; `GONE` once it left `T`.
    slot: Vec<u32>,
    /// Classes whose pool was non-empty at the last draw, in draw order.
    live: Vec<usize>,
}

/// One class's rows (ascending) and a 1-based Fenwick tree of 0/1
/// membership counts over their positions.
#[derive(Default)]
struct ClassPool {
    rows: Vec<u32>,
    fen: Vec<u32>,
    count: usize,
}

const GONE: u32 = u32::MAX;

impl<'d> CandidatePools<'d> {
    /// Every row in `T`, grouped by label in one pass.
    fn new(labels: &'d [u32], n_classes: usize) -> Self {
        let mut pools: Vec<ClassPool> = (0..n_classes).map(|_| ClassPool::default()).collect();
        let slot = labels
            .iter()
            .enumerate()
            .map(|(row, &c)| {
                let pool = &mut pools[c as usize];
                pool.rows.push(row as u32);
                (pool.rows.len() - 1) as u32
            })
            .collect();
        for pool in &mut pools {
            pool.count = pool.rows.len();
            // With every position present, node i counts its whole range:
            // its lowest set bit.
            pool.fen = (0..=pool.count)
                .map(|i| (i & i.wrapping_neg()) as u32)
                .collect();
        }
        let live = (0..n_classes).filter(|&c| pools[c].count > 0).collect();
        Self {
            labels,
            pools,
            slot,
            live,
        }
    }

    /// Rows still in `T`.
    fn len(&self) -> usize {
        self.live.iter().map(|&c| self.pools[c].count).sum()
    }

    /// Every row still in `T`, in ascending order.
    fn rows(&self) -> Vec<usize> {
        (0..self.slot.len())
            .filter(|&row| self.slot[row] != GONE)
            .collect()
    }

    /// One random candidate per class still in `T`, larger classes first
    /// (ties by class id); empty once `T` is (`U ⊆ L`).
    fn draw(&mut self, rng: &mut impl Rng) -> Vec<usize> {
        let pools = &self.pools;
        self.live.retain(|&c| pools[c].count > 0);
        self.live
            .sort_unstable_by_key(|&c| (std::cmp::Reverse(pools[c].count), c));
        self.live
            .iter()
            .map(|&c| pools[c].select(rng.gen_range(0..pools[c].count)))
            .collect()
    }

    /// Takes `row` out of `T` (a no-op when it already left).
    fn remove(&mut self, row: usize) {
        let slot = std::mem::replace(&mut self.slot[row], GONE);
        if slot == GONE {
            return;
        }
        let pool = &mut self.pools[self.labels[row] as usize];
        pool.count -= 1;
        let mut i = slot as usize + 1;
        while i < pool.fen.len() {
            pool.fen[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }
}

impl ClassPool {
    /// The k-th (0-based) remaining row in ascending row order.
    ///
    /// # Panics
    /// Debug-asserts `k < count`.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.count);
        let n = self.rows.len();
        let mut pos = 0usize;
        let mut remaining = (k + 1) as u32;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.fen[next] < remaining {
                remaining -= self.fen[next];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` is the largest 1-based prefix whose count is still < k+1,
        // so the answer is the 1-based position `pos + 1`, i.e. slot `pos`.
        self.rows[pos] as usize
    }
}

/// Runs RD-GBG over `data`.
///
/// # Panics
/// Panics if `density_tolerance < 2` (the rules `h == 1`, `1 < h < ρ`,
/// `h == ρ` need ρ ≥ 2 to be distinguishable) or the dataset is empty.
#[must_use]
pub fn rd_gbg(data: &Dataset, config: &RdGbgConfig) -> RdGbgModel {
    rd_gbg_with_progress(data, config, None)
}

/// [`rd_gbg`] with an optional per-iteration progress sink.
///
/// After every global iteration the sink receives a
/// [`ProgressEvent::Granulate`] with cumulative counts (balls created,
/// conflict-bounded balls, noise, rows still undivided) and elapsed µs.
/// The sink only *observes*: RNG draws, ball construction, and the
/// produced model are bit-identical with and without it.
///
/// # Panics
/// Same contract as [`rd_gbg`].
#[must_use]
pub fn rd_gbg_with_progress(
    data: &Dataset,
    config: &RdGbgConfig,
    mut progress: Option<ProgressSink<'_>>,
) -> RdGbgModel {
    let started = Instant::now();
    assert!(
        config.density_tolerance >= 2,
        "density tolerance must be at least 2"
    );
    assert!(data.n_samples() > 0, "cannot granulate an empty dataset");

    // Cosine granulates in chord geometry: an L2-normalized copy of the
    // rows drives the squared-Euclidean machinery unchanged (Euclidean on
    // unit vectors *is* the chord), and the produced centers come out
    // normalized. Other metrics run on the rows as-is with their own
    // kernels.
    let normalized_data;
    let (data, inner) = if config.metric == Metric::Cosine {
        let mut feats = data.features().to_vec();
        l2_normalize_rows(&mut feats, data.n_features());
        normalized_data = Dataset::from_parts(
            feats,
            data.labels().to_vec(),
            data.n_features(),
            data.n_classes(),
        );
        (&normalized_data, Metric::SqEuclidean)
    } else {
        (data, config.metric)
    };

    let vetting = if config.detect_noise {
        Vetting::Density(config.density_tolerance)
    } else {
        Vetting::NearestOnly
    };
    let mut granulator = Granulator::new(
        data,
        config.backend,
        inner,
        vetting,
        config.restrict_overlap,
    );
    let mut pools = CandidatePools::new(data.labels(), data.n_classes());
    let mut rng = rng_from_seed(config.seed);
    let mut iterations = 0usize;
    let mut conflict_bounded = 0usize;
    // Whether the fetch of every row of `T` is still to come; never where
    // the granulator fetches nothing.
    let mut fetch_pending = granulator.fetches();

    loop {
        let candidates = pools.draw(&mut rng);
        if candidates.is_empty() {
            break; // U ⊆ L
        }
        iterations += 1;

        // Until the whole-`T` fetch, the iteration's hood lists in one
        // batched call where that pays.
        if fetch_pending && granulator.batches_candidates() {
            granulator.fetch_hoods(&candidates);
        }
        let balls_before = granulator.balls().len();
        for center_row in candidates {
            // A ball built earlier in this iteration may have absorbed the
            // candidate, or detection may have deleted it.
            if !granulator.is_candidate(center_row) {
                continue;
            }
            let step = granulator.step(center_row);
            if let Some(bad) = step.noisy_neighbor {
                pools.remove(bad);
            }
            if step.kind == DecisionKind::Ball {
                conflict_bounded += usize::from(step.conflict_bounded);
                let ball = granulator.balls().last().expect("the step's ball");
                for &m in &ball.members {
                    pools.remove(m);
                }
            }
            // Whatever the step decided, the candidate left `T`.
            pools.remove(center_row);
        }
        // The first iteration that grew no ball: balls have stopped
        // swallowing rows wholesale, so the lists of every row left in `T`
        // are fetched once, where that pays.
        if fetch_pending && granulator.balls().len() == balls_before {
            granulator.fetch_all(&pools.rows());
            fetch_pending = false;
        }

        if let Some(sink) = progress.as_mut() {
            sink(&ProgressEvent::Granulate {
                iteration: u32::try_from(iterations).unwrap_or(u32::MAX),
                balls: granulator.balls().len(),
                conflicts: conflict_bounded,
                noise: granulator.noise().len(),
                remaining: pools.len(),
                knn_queries: granulator.queries.knn,
                het_queries: granulator.queries.het,
                range_queries: granulator.queries.range,
                conflict_visits: granulator.queries.conflict_visits,
                elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            });
        }
    }
    granulator.finish(iterations, config.metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;

    fn two_clusters() -> Dataset {
        // class 0 near origin, class 1 near (10, 10): trivially separable
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            feats.push((i % 5) as f64 * 0.1);
            feats.push((i / 5) as f64 * 0.1);
            labels.push(0);
        }
        for i in 0..20 {
            feats.push(10.0 + (i % 5) as f64 * 0.1);
            feats.push(10.0 + (i / 5) as f64 * 0.1);
            labels.push(1);
        }
        Dataset::from_parts(feats, labels, 2, 2)
    }

    fn check_invariants(data: &Dataset, model: &RdGbgModel) {
        // purity
        for b in &model.balls {
            assert_eq!(b.measured_purity(data), 1.0, "impure ball");
            assert!(!b.is_empty());
        }
        // exact partition of non-noise rows
        let mut seen = vec![0usize; data.n_samples()];
        for b in &model.balls {
            for &m in &b.members {
                seen[m] += 1;
            }
        }
        for &x in &model.noise {
            seen[x] += 1;
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "cover + noise must partition rows: {seen:?}"
        );
        // geometric membership
        for b in &model.balls {
            for &m in &b.members {
                assert!(
                    b.contains_point(data.row(m), 1e-9),
                    "member escapes its ball"
                );
            }
        }
        // pairwise non-overlap
        for (i, a) in model.balls.iter().enumerate() {
            for b in model.balls.iter().skip(i + 1) {
                assert!(!a.overlaps(b, 1e-9), "balls overlap");
            }
        }
    }

    #[test]
    fn pools_select_the_kth_remaining_row_of_each_class() {
        let mut rng = rng_from_seed(3);
        let labels: Vec<u32> = (0..300).map(|_| rng.gen_range(0..4)).collect();
        // Class 4 has no rows.
        let mut pools = CandidatePools::new(&labels, 5);
        let mut in_t = vec![true; labels.len()];
        for _ in 0..400 {
            let row = rng.gen_range(0..labels.len());
            pools.remove(row);
            in_t[row] = false;
            for c in 0..4 {
                let naive: Vec<usize> = (0..labels.len())
                    .filter(|&r| in_t[r] && labels[r] == c)
                    .collect();
                let pool = &pools.pools[c as usize];
                assert_eq!(pool.count, naive.len());
                for (k, &r) in naive.iter().enumerate() {
                    assert_eq!(pool.select(k), r, "class {c}, k = {k}");
                }
            }
        }
        assert_eq!(pools.len(), in_t.iter().filter(|&&t| t).count());
    }

    #[test]
    fn pools_are_linear_in_rows_with_one_class_per_row() {
        // A pool per class over all n rows would take n² slots here.
        let n = 20_000;
        let labels: Vec<u32> = (0..n as u32).collect();
        let mut pools = CandidatePools::new(&labels, n);
        let slots = pools.slot.len()
            + pools
                .pools
                .iter()
                .map(|p| p.rows.len() + p.fen.len())
                .sum::<usize>();
        assert!(slots <= 4 * n, "{slots} slots for {n} rows");
        // Equal counts draw in class order, each class's only row.
        let drawn = pools.draw(&mut rng_from_seed(0));
        assert!(drawn.iter().copied().eq(0..n));
        for row in 0..n {
            pools.remove(row);
        }
        assert_eq!(pools.len(), 0);
        assert!(pools.draw(&mut rng_from_seed(0)).is_empty());
    }

    #[test]
    fn separable_clusters_yield_few_large_balls() {
        let data = two_clusters();
        let model = rd_gbg(&data, &RdGbgConfig::default());
        check_invariants(&data, &model);
        assert!(model.noise.is_empty(), "no noise in clean data");
        // the two clusters should be covered compactly
        assert!(
            model.balls.len() <= 10,
            "expected compact cover, got {} balls",
            model.balls.len()
        );
        assert!(model.balls.iter().any(|b| b.len() >= 10));
    }

    #[test]
    fn invariants_on_catalog_samples() {
        for id in [DatasetId::S5, DatasetId::S2, DatasetId::S6] {
            let data = id.generate(0.05, 3);
            let model = rd_gbg(&data, &RdGbgConfig::default());
            check_invariants(&data, &model);
        }
    }

    #[test]
    fn invariants_hold_on_every_backend() {
        let data = DatasetId::S5.generate(0.05, 3);
        for backend in GranulationBackend::CONCRETE {
            let model = rd_gbg(&data, &RdGbgConfig::default().with_backend(backend));
            check_invariants(&data, &model);
        }
    }

    #[test]
    fn backends_produce_bit_identical_models() {
        let data = DatasetId::S2.generate(0.1, 6);
        let cfg = RdGbgConfig {
            seed: 11,
            ..RdGbgConfig::default()
        };
        let reference = rd_gbg(&data, &cfg.with_backend(GranulationBackend::Brute));
        for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
            let model = rd_gbg(&data, &cfg.with_backend(backend));
            assert_eq!(model.noise, reference.noise, "{backend}");
            assert_eq!(model.iterations, reference.iterations, "{backend}");
            assert_eq!(model.balls.len(), reference.balls.len(), "{backend}");
            for (a, b) in model.balls.iter().zip(reference.balls.iter()) {
                assert_eq!(a.members, b.members, "{backend}");
                assert_eq!(a.radius, b.radius, "{backend}");
                assert_eq!(a.label, b.label, "{backend}");
            }
        }
    }

    #[test]
    fn backends_produce_bit_identical_models_under_each_metric() {
        // Contract v2 extends the cross-backend bit-identity guarantee to
        // every supported metric: for a fixed `Metric`, brute force, the
        // KD-tree, and the VP-tree must granulate to the same model, bit
        // for bit (radii included).
        let data = DatasetId::S2.generate(0.1, 6);
        for metric in Metric::ALL {
            let cfg = RdGbgConfig {
                seed: 11,
                ..RdGbgConfig::default()
            }
            .with_metric(metric);
            let reference = rd_gbg(&data, &cfg.with_backend(GranulationBackend::Brute));
            if metric == Metric::SqEuclidean {
                // The geometric invariants (containment, non-overlap) are
                // stated in Euclidean ball space; other metrics granulate
                // in their own geometry, where only bit-identity applies.
                check_invariants(&data, &reference);
            }
            for backend in [GranulationBackend::KdTree, GranulationBackend::VpTree] {
                let model = rd_gbg(&data, &cfg.with_backend(backend));
                assert_eq!(model.noise, reference.noise, "{metric}/{backend}");
                assert_eq!(model.iterations, reference.iterations, "{metric}/{backend}");
                assert_eq!(
                    model.balls.len(),
                    reference.balls.len(),
                    "{metric}/{backend}"
                );
                for (a, b) in model.balls.iter().zip(reference.balls.iter()) {
                    assert_eq!(a.members, b.members, "{metric}/{backend}");
                    assert_eq!(a.radius.to_bits(), b.radius.to_bits(), "{metric}/{backend}");
                    assert_eq!(a.label, b.label, "{metric}/{backend}");
                }
            }
        }
    }

    #[test]
    fn isolated_noise_point_is_detected() {
        let mut data = two_clusters();
        // a lone class-1 sample deep inside class-0 territory
        data.push_row(&[0.2, 0.2], 1);
        let model = rd_gbg(
            &data,
            &RdGbgConfig {
                density_tolerance: 5,
                seed: 9,
                ..Default::default()
            },
        );
        check_invariants(&data, &model);
        assert!(
            model.noise.contains(&40),
            "planted noise row 40 not detected; noise = {:?}",
            model.noise
        );
    }

    #[test]
    fn determinism_under_seed() {
        let data = DatasetId::S5.generate(0.03, 1);
        let cfg = RdGbgConfig {
            density_tolerance: 5,
            seed: 123,
            ..Default::default()
        };
        let a = rd_gbg(&data, &cfg);
        let b = rd_gbg(&data, &cfg);
        assert_eq!(a.balls.len(), b.balls.len());
        for (x, y) in a.balls.iter().zip(b.balls.iter()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.radius, y.radius);
        }
    }

    #[test]
    fn single_class_dataset_gets_one_big_ball_cover() {
        let feats: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let data = Dataset::from_parts(feats, vec![0; 30], 1, 1);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        check_invariants(&data, &model);
        assert!(model.noise.is_empty());
        // with no heterogeneous samples, diffusion is unbounded: 1 ball
        assert_eq!(model.balls.len(), 1);
        assert_eq!(model.balls[0].len(), 30);
    }

    #[test]
    fn orphan_balls_have_radius_zero_and_one_member() {
        // two classes interleaved so tightly that most centers fail the
        // density test -> plenty of orphans
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            feats.push(i as f64 * 0.1);
            labels.push((i % 2) as u32);
        }
        let data = Dataset::from_parts(feats, labels, 1, 2);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        check_invariants(&data, &model);
        for b in model.balls.iter().filter(|b| b.radius == 0.0) {
            assert_eq!(b.len(), 1);
        }
        assert!(model.orphan_count > 0);
    }

    #[test]
    fn overlap_ablation_produces_overlaps_but_stays_pure() {
        use crate::diagnostics::count_overlaps;
        let data = DatasetId::S5.generate(0.05, 4);
        let restricted = rd_gbg(&data, &RdGbgConfig::default());
        let unrestricted = rd_gbg(
            &data,
            &RdGbgConfig {
                restrict_overlap: false,
                ..RdGbgConfig::default()
            },
        );
        assert_eq!(count_overlaps(&restricted.balls, 1e-9), 0);
        assert!(
            count_overlaps(&unrestricted.balls, 1e-9) > 0,
            "ablation should reintroduce ball overlap"
        );
        // purity and exact partition still hold in the ablation
        for b in &unrestricted.balls {
            assert_eq!(b.measured_purity(&data), 1.0);
        }
        let covered: usize = unrestricted.balls.iter().map(|b| b.len()).sum();
        assert_eq!(covered + unrestricted.noise.len(), data.n_samples());
    }

    #[test]
    fn noise_detection_ablation_removes_nothing() {
        use gb_dataset::noise::inject_class_noise;
        let clean = DatasetId::S5.generate(0.05, 4);
        let (noisy, _) = inject_class_noise(&clean, 0.2, 3);
        let model = rd_gbg(
            &noisy,
            &RdGbgConfig {
                detect_noise: false,
                ..RdGbgConfig::default()
            },
        );
        assert!(model.noise.is_empty(), "ablation must not remove samples");
        let covered: usize = model.balls.iter().map(|b| b.len()).sum();
        assert_eq!(covered, noisy.n_samples(), "completeness without removals");
    }

    #[test]
    fn with_rho_helper_sets_defaults() {
        let cfg = RdGbgConfig::with_rho(9);
        assert_eq!(cfg.density_tolerance, 9);
        assert!(cfg.restrict_overlap);
        assert!(cfg.detect_noise);
        assert_eq!(cfg.backend, GranulationBackend::Auto);
    }

    #[test]
    #[should_panic(expected = "density tolerance")]
    fn rejects_tiny_rho() {
        let data = two_clusters();
        let _ = rd_gbg(
            &data,
            &RdGbgConfig {
                density_tolerance: 1,
                seed: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty() {
        let data = Dataset::from_parts(Vec::new(), Vec::new(), 1, 1);
        let _ = rd_gbg(&data, &RdGbgConfig::default());
    }

    #[test]
    fn conflict_radius_visits_few_balls_per_query() {
        // A guard, not a correctness property (the conflict index's brute
        // checks are): each conflict-radius query must stay a scan of a
        // small buffer plus pruned descents of a few trees. On this input
        // the logarithmic method visits ~97 balls per k-NN query; a brute
        // buffer that grows with the ball count visits ~450.
        use gb_dataset::noise::inject_class_noise;
        use gb_dataset::synth::banana::BananaSpec;
        let clean = BananaSpec {
            n_samples: 20_000,
            scatter: 0.05,
            ..BananaSpec::default()
        }
        .generate(7);
        let data = inject_class_noise(&clean, 0.10, 1).0;
        let mut last = None;
        let mut sink = |e: &ProgressEvent| last = Some(e.clone());
        let model = rd_gbg_with_progress(&data, &RdGbgConfig::default(), Some(&mut sink));
        let Some(ProgressEvent::Granulate {
            knn_queries,
            conflict_visits,
            ..
        }) = last
        else {
            panic!("no granulate event");
        };
        assert!(model.balls.len() > 5_000, "{} balls", model.balls.len());
        assert!(
            conflict_visits < 200 * knn_queries,
            "{conflict_visits} conflict visits for {knn_queries} k-NN queries"
        );
    }

    #[test]
    fn injected_noise_triggers_detection() {
        use gb_dataset::noise::inject_class_noise;
        // a clean, well-separated base so every flipped label is isolated
        let clean = {
            let mut feats = Vec::new();
            let mut labels = Vec::new();
            for i in 0..200 {
                let c = i % 2;
                feats.push(c as f64 * 20.0 + (i / 2 % 10) as f64 * 0.1);
                feats.push((i / 20) as f64 * 0.1);
                labels.push(c as u32);
            }
            Dataset::from_parts(feats, labels, 2, 2)
        };
        let cfg = RdGbgConfig::default();
        let m_clean = rd_gbg(&clean, &cfg);
        assert!(m_clean.noise.is_empty());
        let (noisy, flipped) = inject_class_noise(&clean, 0.10, 5);
        let m = rd_gbg(&noisy, &cfg);
        // most removals should be actual planted flips
        let true_hits = m.noise.iter().filter(|r| flipped.contains(r)).count();
        assert!(
            true_hits * 2 >= m.noise.len(),
            "precision too low: {true_hits}/{}",
            m.noise.len()
        );
        assert!(
            !m.noise.is_empty(),
            "isolated flipped labels must be detected as noise"
        );
    }
}
