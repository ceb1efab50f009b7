//! Workload inputs, generated from the run seed. The program under test
//! only ever sees these generated files and rows.

use gb_dataset::catalog::DatasetId;
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::{derive_seed, rng_from_seed};
use gb_dataset::split::{stratified_holdout, stratified_subsample};
use gb_dataset::synth::banana::BananaSpec;
use gb_dataset::Dataset;
use rand::seq::SliceRandom;

/// Rows of the offline banana input (the largest size of the catalog's
/// granulation benches).
pub const BANANA_ROWS: usize = 50_000;
/// Rows of each offline USPS input: 1/8 of the S13 surrogate, 1,162 × 256,
/// a 2.4 MB feature matrix (beyond a 2 MiB per-core L2) and ~0.4 s per
/// call, so a run holds enough calls for a steady median.
pub const USPS_ROWS: usize = 1_162;
/// Injected class-noise share of both offline inputs.
pub const CLASS_NOISE: f64 = 0.10;
/// Held-out share of the Dry Bean surrogate: the `/predict` query rows.
pub const HOLDOUT: f64 = 0.10;
/// Seed of the fixed S8 and S13 populations. Like the real Dry Bean and
/// USPS sets they stand in for, each is one dataset; the run seed picks
/// which of its rows a run uses. (A seed per run would redraw the class
/// geometry itself, and with it the cost of every operation.)
const POPULATION_SEED: u64 = 0x5EED_0813;

/// Independent seed streams derived from the run seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Banana = 1,
    Usps = 2,
    Noise = 3,
    Split = 4,
    IngestRows = 5,
}

/// The seed of item `index` of `stream`: distinct and reproducible for
/// every `(seed, stream, index)`.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    derive_seed(derive_seed(seed, stream as u64), index)
}

/// Offline input `index` of a run: the S5 banana shape at
/// [`BANANA_ROWS`] rows with [`CLASS_NOISE`] class noise.
pub fn banana(seed: u64, index: u64) -> Dataset {
    let s = mix(seed, Stream::Banana, index);
    let clean = BananaSpec {
        n_samples: BANANA_ROWS,
        noise: 0.12,
        imbalance_ratio: 1.23,
        scatter: 0.05,
    }
    .generate(s);
    inject_class_noise(&clean, CLASS_NOISE, mix(s, Stream::Noise, 0)).0
}

/// The S13 USPS surrogate population (9,298 × 256, 10 classes).
pub fn usps_population() -> Dataset {
    DatasetId::S13.generate(1.0, POPULATION_SEED)
}

/// Offline input `index` of a run: a stratified [`USPS_ROWS`]-row sample
/// of `population` with [`CLASS_NOISE`] class noise.
pub fn usps(population: &Dataset, seed: u64, index: u64) -> Dataset {
    let s = mix(seed, Stream::Usps, index);
    let rows = stratified_subsample(population, USPS_ROWS, s);
    inject_class_noise(
        &population.select(&rows),
        CLASS_NOISE,
        mix(s, Stream::Noise, 0),
    )
    .0
}

/// The serving inputs: the clean S8 Dry Bean surrogate split into the
/// training set the server boots on and the held-out query rows.
pub struct DryBean {
    pub train: Dataset,
    pub queries: Dataset,
}

/// The S8 Dry Bean surrogate population (13,611 × 16, 7 classes, clean).
pub fn dry_bean_population() -> Dataset {
    DatasetId::S8.generate(1.0, POPULATION_SEED)
}

pub fn dry_bean(population: &Dataset, seed: u64) -> DryBean {
    let (train, test) = stratified_holdout(population, HOLDOUT, mix(seed, Stream::Split, 0));
    DryBean {
        train: population.select(&train),
        queries: population.select(&test),
    }
}

/// The serve-ingest tenant: `founding` rows that create it and `appended`
/// rows to append, split from one fixed stratified sample of
/// `population`. The tenant's rows are the same in every run — a random
/// draw of them would swing the size of its cover, and with it the cost of
/// every append, by ±25% — and the run seed sets the order in which the
/// appended rows arrive.
pub fn ingest_rows(
    population: &Dataset,
    seed: u64,
    founding: usize,
    appended: usize,
) -> (Dataset, Dataset) {
    let mut rows = stratified_subsample(population, founding + appended, POPULATION_SEED);
    rows.shuffle(&mut rng_from_seed(POPULATION_SEED));
    let mut later = rows.split_off(founding);
    later.shuffle(&mut rng_from_seed(mix(seed, Stream::IngestRows, 0)));
    (population.select(&rows), population.select(&later))
}
