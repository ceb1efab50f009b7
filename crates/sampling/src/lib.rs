//! # gb-sampling
//!
//! The baseline sampling methods the GBABS paper compares against (§V-A)
//! plus the related-work methods its introduction surveys (§I), implemented
//! from scratch behind the shared [`gbabs::Sampler`] trait.
//!
//! Paper §V-A comparison baselines:
//!
//! * [`srs::Srs`] — simple random sampling (ratio-matched to GBABS),
//! * [`smote::Smote`] — SMOTE oversampling,
//! * [`borderline_smote::BorderlineSmote`] — Borderline-SMOTE (variant 1),
//! * [`smotenc::SmoteNc`] — SMOTE for mixed numeric/categorical data,
//! * [`tomek::TomekLinks`] — Tomek-link undersampling,
//! * [`ggbs::Ggbs`] / [`igbs::Igbs`] — the GB-based sampling baselines, on
//!   top of the classic purity-threshold k-division GBG in [`gbg_kdiv`].
//!
//! Paper §I related-work methods (general samplers and the extended
//! imbalance family):
//!
//! * [`stratified::Stratified`] — per-class proportional allocation,
//! * [`systematic::Systematic`] — fixed-stride systematic sampling,
//! * [`bootstrap::Bootstrap`] — with-replacement resampling,
//! * [`adasyn::Adasyn`] — difficulty-weighted SMOTE variant,
//! * [`cnn::CondensedNn`] — Hart's condensed nearest neighbour (the method
//!   Tomek's \[16\] modifies),
//! * [`enn::EditedNn`] — Wilson editing (the other classic cleaning rule),
//! * [`combine::SmoteTomek`] / [`combine::SmoteEnn`] — the standard
//!   oversample-then-clean combinations.
//!
//! Granulation substrates for the GB-based baselines and ablations live in
//! [`gbg_kdiv`] (purity-threshold k-division), [`gbg_kmeans`] (the original
//! 2-means GBG of Xia et al. \[22\]) and [`gbg_pp`] (GBG++ hard-attention
//! division of Xie et al. \[38\]).
//!
//! ```
//! use gbabs::Sampler;
//! use gb_dataset::catalog::DatasetId;
//! use gb_sampling::smote::Smote;
//!
//! let imbalanced = DatasetId::S9.generate(0.05, 1);
//! let balanced = Smote::default().sample(&imbalanced, 0).dataset;
//! let counts = balanced.class_counts();
//! assert_eq!(counts[0], counts[1]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adasyn;
pub mod bootstrap;
pub mod borderline_smote;
pub mod cnn;
pub mod combine;
pub mod enn;
pub mod gbg_kdiv;
pub mod gbg_kmeans;
pub mod gbg_pp;
pub mod ggbs;
pub mod igbs;
pub mod smote;
pub mod smotenc;
pub mod srs;
pub mod stratified;
pub mod systematic;
pub mod tomek;

pub use adasyn::Adasyn;
pub use bootstrap::Bootstrap;
pub use borderline_smote::BorderlineSmote;
pub use cnn::CondensedNn;
pub use combine::{SmoteEnn, SmoteTomek};
pub use enn::EditedNn;
pub use ggbs::Ggbs;
pub use igbs::Igbs;
pub use smote::Smote;
pub use smotenc::SmoteNc;
pub use srs::Srs;
pub use stratified::Stratified;
pub use systematic::Systematic;
pub use tomek::TomekLinks;

use gb_dataset::index::{BruteIndex, NeighborIndex, SqNeighbor};
use gb_dataset::Dataset;

/// The `k` nearest rows to each of `rows` (every row skipped in its own
/// search) among the rows alive in `index`, in `rows` order.
pub(crate) fn row_hoods(
    index: &BruteIndex,
    data: &Dataset,
    rows: &[usize],
    k: usize,
) -> Vec<Vec<SqNeighbor>> {
    let queries: Vec<&[f64]> = rows.iter().map(|&r| data.row(r)).collect();
    let skips: Vec<Option<usize>> = rows.iter().map(|&r| Some(r)).collect();
    index.k_nearest_sq_par(&queries, k, &skips)
}

/// `index` with every row outside `class` deleted, so a same-class search
/// is a plain skip-one query, which stays fully batched.
pub(crate) fn class_index(index: &BruteIndex, data: &Dataset, class: u32) -> BruteIndex {
    let mut class_index = index.clone();
    for row in (0..data.n_samples()).filter(|&r| data.label(r) != class) {
        class_index.delete(row);
    }
    class_index
}
