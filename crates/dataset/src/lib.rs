//! # gb-dataset
//!
//! Dataset substrate for the GBABS reproduction (ICDE 2025, arXiv:2506.02366):
//! a dense labelled [`Dataset`] type, distance kernels, exact neighbour
//! indexes (brute force, KD-tree, VP-tree), stratified splitting, feature
//! scaling, class-noise injection, and a synthetic catalog standing in for
//! the paper's 13 public datasets.
//!
//! Everything downstream — the granular-ball algorithms, the baseline
//! samplers, the classifiers — is written against this crate.
//!
//! ```
//! use gb_dataset::catalog::DatasetId;
//! use gb_dataset::noise::inject_class_noise;
//!
//! let banana = DatasetId::S5.generate(0.05, 42);
//! assert_eq!(banana.n_features(), 2);
//! let (noisy, flipped) = inject_class_noise(&banana, 0.10, 7);
//! assert_eq!(flipped.len(), (noisy.n_samples() as f64 * 0.10).round() as usize);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod dataset;
pub mod distance;
pub mod encode;
pub mod index;
pub mod io;
pub mod kdtree;
pub mod noise;
pub mod rng;
pub mod scale;
pub mod split;
pub mod summary;
pub mod synth;
pub mod vptree;

/// How many contiguous ranges to split `work` units into, at least
/// `per_range` each: one below twice that — without asking the host how
/// many threads it has, which std answers by re-reading the affinity mask
/// and the cgroup CPU quota (~12 µs on a 2-vCPU Linux container) — else
/// up to one per thread.
#[must_use]
pub fn par_ranges(work: usize, per_range: usize) -> usize {
    match work / per_range {
        0 | 1 => 1,
        ranges => rayon::current_num_threads().min(ranges),
    }
}

pub use dataset::{Dataset, DatasetError, FeatureKind};
pub use distance::{active_kernel, validate_simd_env, Kernel, Metric, CONTRACT_VERSION};
pub use index::{GranulationBackend, NeighborIndex, SqNeighbor};
