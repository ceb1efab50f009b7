//! # gbabs
//!
//! Rust reproduction of the paper **"Approximate Borderline Sampling using
//! Granular-Ball for Classification Tasks"** (Xie, Zhang, Xia — ICDE 2025,
//! arXiv:2506.02366).
//!
//! Two algorithms make up the contribution:
//!
//! * [`rdgbg::rd_gbg`] — **RD-GBG**: covers a labelled dataset with pure,
//!   pairwise non-overlapping granular balls grown by restricted diffusion,
//!   detecting class noise on the way (density tolerance ρ).
//! * [`borderline::gbabs`] — **GBABS**: flags borderline balls by scanning
//!   ball centers along every feature dimension for heterogeneous adjacent
//!   neighbours and samples the facing extreme members, yielding an
//!   approximate borderline sample set in linear time.
//!
//! Around them: [`gbknn`] (the original granular-ball classifier, surface
//! or center distance rule), [`diagnostics`] (cover invariant checks), the
//! [`sampler::Sampler`] trait every baseline implements, and serde
//! persistence on [`GranularBall`]/[`rdgbg::RdGbgModel`] so a granulation
//! can be stored and resampled later.
//!
//! ## Granulation backends
//!
//! The RD-GBG hot path runs against a pluggable neighbour index
//! ([`gb_dataset::index::NeighborIndex`]), selected by
//! [`RdGbgConfig::backend`] (CLI: `--backend`, harness:
//! `HarnessConfig::backend`). **Every backend produces a bit-identical
//! model** — same balls, radii, noise list, iteration count — for a fixed
//! seed (enforced by `tests/granulation_props.rs`); the choice only moves
//! the constant/asymptotics:
//!
//! | backend  | per-query cost        | sweet spot                                |
//! |----------|-----------------------|-------------------------------------------|
//! | `brute`  | O(n·d)                | tiny data; adversarial dimensionality     |
//! | `kdtree` | O(log n) while pruning| low/medium ambient dimension (p ≲ 24)     |
//! | `vptree` | O(log n) while pruning| high ambient p, low intrinsic dimension   |
//! | `auto`   | —                     | picks one of the above from (n, p)        |
//!
//! End-to-end RD-GBG is `O(n²·d)` under `brute` and empirically
//! `O(n·polylog n)` under the tree backends (see
//! `crates/bench/benches/granulation.rs` and BENCH_GRANULATION.json: ≈38×
//! at n = 50 000 with 10% class noise). Three further ingredients keep the
//! indexed path lean regardless of backend: squared distances everywhere
//! (one `sqrt` per finalized ball); a Fenwick rank-select pool per class,
//! over that class's rows only, that replaces the per-iteration O(n)
//! candidate sweep and keeps memory linear in the rows whatever the class
//! count; and max-radius KD-trees over finished balls that answer the
//! Eq.-4 conflict-radius query in O(log² m).
//!
//! ```
//! use gb_dataset::catalog::DatasetId;
//! use gbabs::{gbabs, RdGbgConfig};
//!
//! let data = DatasetId::S5.generate(0.05, 42); // banana surrogate
//! let result = gbabs(&data, &RdGbgConfig::default());
//! // Borderline sampling compresses the dataset ...
//! assert!(result.sampled_rows.len() < data.n_samples());
//! // ... and the underlying cover is pure and non-overlapping.
//! gbabs::diagnostics::verify_rdgbg_invariants(&data, &result.model).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ball;
pub mod borderline;
mod conflict;
pub mod diagnostics;
pub mod gbknn;
pub mod rdgbg;
pub mod sampler;

pub use ball::GranularBall;
pub use borderline::{
    borderline_from_model, borderline_over_balls, gbabs, gbabs_with_progress, GbabsResult,
};
// Re-exported so downstream crates (CLI, serve) can consume progress events
// without depending on gb-obs directly.
pub use gb_obs::{ProgressEvent, ProgressPhase};
// Re-exported because `RdGbgModel` and the config builders carry a
// `Metric` field; constructors shouldn't need a gb-dataset dependency
// just to name it.
pub use gb_dataset::Metric;
pub use gbknn::{DistanceRule, GbKnn, GbKnnConfig};
pub use rdgbg::incremental::{canonical_rd_gbg, MaintainedModel};
pub use rdgbg::{rd_gbg, rd_gbg_with_progress, ProgressSink, RdGbgConfig, RdGbgModel};
pub use sampler::{GbabsSampler, NoSampling, SampleResult, Sampler};
