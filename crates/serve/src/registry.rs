//! Named serving models: atomic hot-reload, byte-budgeted LRU residency,
//! and lazy reload from the disk-backed [`crate::store::ModelStore`].
//!
//! A [`ServingModel`] bundles everything the request path needs — the
//! GB-kNN predictor (built **once** per load from the ball cover), the
//! cover statistics reported by `GET /model`, and a monotonically
//! increasing version — plus the inputs of the tenant's next commit: its
//! [`LoadOptions`] and, for a maintained tenant, ρ and the backing rows.
//! The served model is a tenant's only home in memory. The
//! [`ModelRegistry`] maps names to `Arc<ServingModel>`; lookups clone the
//! `Arc` under a briefly held lock, so a reload is one pointer swap:
//! in-flight requests keep predicting against the model they resolved,
//! new requests see the new one, and the old model is freed when its last
//! in-flight request finishes.
//!
//! # One commit path
//!
//! Every mutation — publish, `/rows` append, rollback — ends in the same
//! private commit: validate the cover and build its predictor, write the
//! tenant's next store version (when a store is attached), collect old
//! versions, and swap the new model in. Mutations are serialized by one
//! publish lock, and a mutation builds its new model as a new value, so
//! nothing in memory changes unless the store write succeeds.
//!
//! # Residency and the memory budget
//!
//! With a [`ModelStore`] attached ([`ModelRegistry::with_store`]), every
//! tenant is in one of two states:
//!
//! * **resident** — predictor (and a maintained tenant's rows) in memory,
//!   served directly;
//! * **cold** — persisted on disk only (either never loaded since boot, or
//!   evicted); the catalog knows it exists, a request against it triggers
//!   a transparent reload, and an append reads its rows from the store
//!   head.
//!
//! Each resident model's footprint ([`ServingModel::resident_bytes`]: the
//! measured serialized-envelope size for persisted tenants, a
//! cover-geometry estimate for memory-only models) is accounted against an
//! optional byte budget. Only a store-backed registry has a budget, and
//! there every resident tenant has a store file to be reloaded from.
//! Loading a model that would exceed the budget evicts the
//! least-recently-used resident tenants back to cold until the new total
//! fits (the most recently touched model is never evicted, so the budget
//! is exceeded rather than thrash when a single model is larger than the
//! whole budget).
//!
//! # Cold reloads are single-flight
//!
//! [`ModelRegistry::acquire`] is the request-path lookup: a resident hit
//! bumps recency and returns; a cold hit rebuilds the predictor from disk.
//! Concurrent requests against the same cold tenant trigger **one** disk
//! load — the first caller loads while the rest park on a condvar and are
//! handed the freshly resident `Arc` when it lands. Reload count and
//! latency are exported through [`RegistryStats`] (surfaced in
//! `GET /metrics`).

use crate::metrics::LatencyHistogram;
use crate::store::{MaintainedTenant, ModelStore, ScanReport};
use gb_dataset::index::GranulationBackend;
use gb_dataset::Dataset;
use gbabs::{canonical_rd_gbg, DistanceRule, GbKnn, RdGbgModel};
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Summary statistics of a loaded ball cover (served by `GET /model`).
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Total number of balls.
    pub n_balls: usize,
    /// Radius-0 balls.
    pub n_singletons: usize,
    /// Smallest positive radius (0 when all balls are singletons).
    pub radius_min: f64,
    /// Mean radius over positive-radius balls.
    pub radius_mean: f64,
    /// Largest radius.
    pub radius_max: f64,
    /// Rows the granulation removed as class noise.
    pub noise_rows: usize,
    /// RD-GBG iterations that produced the cover.
    pub iterations: usize,
}

impl ModelStats {
    fn from_model(model: &RdGbgModel) -> Self {
        let positive: Vec<f64> = model
            .balls
            .iter()
            .map(|b| b.radius)
            .filter(|&r| r > 0.0)
            .collect();
        Self {
            n_balls: model.balls.len(),
            n_singletons: model.balls.iter().filter(|b| b.radius == 0.0).count(),
            radius_min: if positive.is_empty() {
                0.0
            } else {
                positive.iter().copied().fold(f64::INFINITY, f64::min)
            },
            radius_mean: if positive.is_empty() {
                0.0
            } else {
                positive.iter().sum::<f64>() / positive.len() as f64
            },
            radius_max: positive.iter().copied().fold(0.0, f64::max),
            noise_rows: model.noise.len(),
            iterations: model.iterations,
        }
    }
}

/// Estimated resident footprint of a loaded model's cover: what the GB-kNN
/// predictor holds — the flattened center matrix plus one radius and one
/// label per ball (no member lists). A maintained tenant adds its rows
/// ([`row_bytes`]).
///
/// Used only for **memory-only** models, which never touch the store.
/// Persisted tenants are accounted by their measured serialized-envelope
/// size, captured at persist ([`ModelStore::save`]) or cold-reload
/// ([`ModelStore::load`]) time — one consistent, observable number per
/// tenant instead of a geometry extrapolation (ROADMAP
/// "measured-not-estimated footprints").
fn estimate_resident_bytes(model: &RdGbgModel) -> u64 {
    use std::mem::size_of;
    let n_features = model.balls.first().map_or(0, |b| b.center.len());
    let per_ball = n_features * size_of::<f64>() + size_of::<f64>() + size_of::<u32>();
    (model.balls.len() * per_ball) as u64
}

/// The bytes of a maintained tenant's rows: its feature matrix and labels,
/// which its served model holds beside the cover.
fn row_bytes(rows: &MaintainedTenant) -> u64 {
    use std::mem::size_of;
    (rows.features.len() * size_of::<f64>() + rows.labels.len() * size_of::<u32>()) as u64
}

/// Most classes a served model may vote over: the larger of its
/// `n_classes` option and its largest ball label + 1. GB-kNN allocates one
/// vote counter per class for every predicted row, and an allocation
/// failure aborts the whole process (no `catch_unwind` can contain it), so
/// [`ModelRegistry`] rejects a larger count on every path that builds a
/// predictor: publish, hot reload, store reload, rollback and `/rows`.
pub const MAX_CLASSES: usize = 65_536;

/// The refusal of a model that votes over more than [`MAX_CLASSES`]
/// classes.
fn too_many_classes(n_classes: usize) -> String {
    format!(
        "the model votes over {n_classes} classes (the larger of n_classes and \
         the largest ball label + 1); at most {MAX_CLASSES} are served"
    )
}

/// A model as served: predictor + metadata, immutable once loaded, plus
/// the inputs of the tenant's next commit.
pub struct ServingModel {
    /// Registry name.
    pub name: String,
    /// Monotonic load version (registry-wide counter; restarts reset it).
    pub version: u64,
    /// Feature dimensionality queries must match.
    pub n_features: usize,
    /// Number of classes the predictor votes over.
    pub n_classes: usize,
    /// The GB-kNN predictor, built once at load time.
    pub predictor: GbKnn,
    /// The options the cover was committed with (`/model` reports the
    /// backend label from here); the tenant's next commit keeps them.
    pub options: LoadOptions,
    /// ρ and the backing rows of a maintained tenant (`None` for a fixed
    /// cover): the next `/rows` append grows these. They leave memory with
    /// the predictor when the tenant is evicted.
    pub maintained: Option<MaintainedTenant>,
    /// Cover statistics for `/model`.
    pub stats: ModelStats,
    /// Footprint accounted against the registry's byte budget: the
    /// measured serialized-envelope size for persisted tenants (captured
    /// at persist/load time, rows included), or the cover-geometry
    /// estimate for memory-only models (which never have a file to
    /// measure).
    pub resident_bytes: u64,
}

impl std::fmt::Debug for ServingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingModel")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("n_features", &self.n_features)
            .field("n_classes", &self.n_classes)
            .field("options", &self.options)
            .field("resident_bytes", &self.resident_bytes)
            .finish_non_exhaustive()
    }
}

/// Parameters for loading a model into the registry.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Number of nearest balls that vote (GB-kNN `k`).
    pub k: usize,
    /// Distance rule for ranking balls.
    pub rule: DistanceRule,
    /// Number of classes; `None` derives `max ball label + 1`.
    pub n_classes: Option<usize>,
    /// Backend label: metadata for a fixed cover, the neighbour index a
    /// maintained tenant's appends granulate on.
    pub backend: GranulationBackend,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            k: 1,
            rule: DistanceRule::Surface,
            n_classes: None,
            backend: GranulationBackend::Auto,
        }
    }
}

/// Why a registry mutation (publish, `/rows` append, rollback) or a chain
/// read failed. Every error commits nothing: the store and the served
/// model stay where they were.
#[derive(Debug)]
pub enum RegistryError {
    /// The request is wrong — an invalid payload, name or batch, a tenant
    /// without backing rows, a rollback without a store — the client's
    /// fault (HTTP 400).
    Rejected(String),
    /// The tenant or the pinned version does not exist (HTTP 404).
    NotFound(String),
    /// Store I/O failed (HTTP 503 — retryable).
    Store(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Rejected(m) | RegistryError::NotFound(m) => write!(f, "{m}"),
            RegistryError::Store(m) => write!(f, "model store: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Acknowledgement of one accepted `/rows` append (or tenant creation).
#[derive(Debug)]
pub struct IngestReceipt {
    /// The model now serving.
    pub serving: Arc<ServingModel>,
    /// Store version this mutation committed (0 when no store is
    /// attached — nothing was persisted).
    pub store_version: u64,
    /// True when this call created the tenant.
    pub created: bool,
    /// Total rows backing the tenant after the append.
    pub n_rows: usize,
}

/// Acknowledgement of one accepted rollback.
#[derive(Debug)]
pub struct RollbackReceipt {
    /// The model now serving.
    pub serving: Arc<ServingModel>,
    /// New head version carrying the rolled-back content.
    pub store_version: u64,
    /// The version whose content was re-activated.
    pub rolled_back_to: u64,
}

/// Metadata of one version of a tenant's chain (`GET /models/{name}`).
#[derive(Debug, Clone)]
pub struct VersionInfo {
    /// Tenant name.
    pub name: String,
    /// The version this metadata describes.
    pub version: u64,
    /// The chain head (active version).
    pub head: u64,
    /// Every version currently retained on disk, ascending.
    pub versions: Vec<u64>,
    /// Payload checksum of this version's parent (`None` for a root).
    pub parent: Option<u64>,
    /// Balls in this version's cover.
    pub n_balls: usize,
    /// Backing rows (`None` for model-only tenants).
    pub n_rows: Option<usize>,
    /// True when this version carries maintained rows (ingest-capable).
    pub maintained: bool,
    /// Serialized size of this version on disk.
    pub file_bytes: u64,
}

/// Predictor + granulation parameters for tenants created through
/// `/rows` (existing maintained tenants reuse the parameters they were
/// created with).
#[derive(Debug, Clone)]
pub struct CreateOptions {
    /// Density tolerance ρ for the maintained granulation (≥ 2).
    pub rho: usize,
    /// Class count; `None` derives `max label + 1` from the first batch.
    /// Appends may never introduce a label outside this range.
    pub n_classes: Option<usize>,
    /// Predictor options (k, rule, backend label).
    pub load: LoadOptions,
}

impl Default for CreateOptions {
    fn default() -> Self {
        Self {
            rho: 5,
            n_classes: None,
            load: LoadOptions::default(),
        }
    }
}

/// One resident tenant.
struct Resident {
    model: Arc<ServingModel>,
    /// Logical-clock timestamp of the last lookup (LRU order).
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    resident: HashMap<String, Resident>,
    /// Tenants known to the store but not in memory: name → file bytes.
    cold: HashMap<String, u64>,
    /// Tenants currently being reloaded from disk (single-flight guard).
    loading: std::collections::HashSet<String>,
    /// Logical clock for LRU ordering.
    clock: u64,
    /// Sum of `resident_bytes` over resident tenants.
    resident_bytes: u64,
}

/// Cache counters exported through `GET /metrics`.
#[derive(Default)]
pub struct RegistryStats {
    /// `acquire` calls answered by a resident model.
    pub hits: AtomicU64,
    /// Cold tenants rebuilt from disk (each counts one actual disk load —
    /// concurrent requests coalesced by the single-flight guard count 1).
    pub cold_reloads: AtomicU64,
    /// Resident tenants evicted to cold state by the byte budget.
    pub evictions: AtomicU64,
    /// End-to-end cold-reload latency (disk read + checksum + predictor
    /// rebuild), log2 µs buckets.
    pub reload_latency: LatencyHistogram,
}

/// Point-in-time residency numbers for `GET /metrics` / `GET /models`.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Resident tenant count.
    pub resident: usize,
    /// Cold (disk-only) tenant count.
    pub cold: usize,
    /// Sum of resident footprints.
    pub resident_bytes: u64,
    /// Configured byte budget (`None` = unbounded).
    pub budget_bytes: Option<u64>,
}

/// One row of `GET /models`.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Tenant name.
    pub name: String,
    /// True when the predictor is in memory.
    pub resident: bool,
    /// Accounted footprint: the measured envelope size for persisted
    /// tenants (resident or cold), the cover-geometry estimate for
    /// memory-only models.
    pub bytes: u64,
    /// Load version (resident tenants only).
    pub version: Option<u64>,
}

/// Named models with atomic hot-reload, optional persistence, and an
/// optional LRU byte budget. See the module docs for the state machine.
#[derive(Default)]
pub struct ModelRegistry {
    inner: Mutex<Inner>,
    /// Signalled when a single-flight cold reload finishes (either way).
    loaded: Condvar,
    versions: AtomicU64,
    store: Option<ModelStore>,
    budget_bytes: Option<u64>,
    /// Serializes mutations (publish, remove, append, rollback) so the
    /// store file and the registry entry can never disagree about which
    /// version won a race.
    publish_lock: Mutex<()>,
    /// Version-chain retention per tenant (0 = unbounded). Old versions
    /// beyond this are garbage-collected after each commit; the head is
    /// never collected.
    max_versions: AtomicUsize,
    /// Files the boot scan quarantined (surfaced by `GET /readyz` so a
    /// post-crash restart that sidelined corrupt tenants is observable).
    boot_quarantined: usize,
    /// Cache counters (hits / cold reloads / evictions / reload latency).
    pub stats: RegistryStats,
}

impl ModelRegistry {
    /// An empty, memory-only registry (no persistence, no budget).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry backed by `store`: scans the directory (quarantining
    /// corrupt files), registers every valid tenant as **cold**, and
    /// enforces `budget_bytes` (when set) over resident footprints.
    ///
    /// # Errors
    /// Propagates directory-listing failures; per-file corruption is a
    /// quarantine in the returned [`ScanReport`], not an error.
    pub fn with_store(
        store: ModelStore,
        budget_bytes: Option<u64>,
    ) -> std::io::Result<(Self, ScanReport)> {
        let report = store.scan()?;
        let mut inner = Inner::default();
        for meta in &report.found {
            inner.cold.insert(meta.name.clone(), meta.file_bytes);
        }
        Ok((
            Self {
                inner: Mutex::new(inner),
                store: Some(store),
                budget_bytes,
                boot_quarantined: report.quarantined.len(),
                ..Self::default()
            },
            report,
        ))
    }

    /// The attached store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&ModelStore> {
        self.store.as_ref()
    }

    /// How many files the boot scan quarantined (0 for memory-only
    /// registries).
    #[must_use]
    pub fn boot_quarantined(&self) -> usize {
        self.boot_quarantined
    }

    /// Rejects covers the predict path could not serve safely.
    fn validate(model: &RdGbgModel, options: &LoadOptions) -> Result<(), String> {
        if model.balls.is_empty() {
            return Err("model has no balls".into());
        }
        if options.k == 0 {
            return Err("k must be positive".into());
        }
        let n_features = model.balls[0].center.len();
        if n_features == 0 {
            return Err("ball centers have zero dimensions".into());
        }
        let n_classes = Self::class_count(model, options);
        if n_classes > MAX_CLASSES {
            return Err(too_many_classes(n_classes));
        }
        for (i, b) in model.balls.iter().enumerate() {
            if b.center.len() != n_features {
                return Err(format!(
                    "ball {i} has {} coordinates but ball 0 has {n_features}",
                    b.center.len()
                ));
            }
            if !b.center.iter().all(|c| c.is_finite()) {
                return Err(format!("ball {i} has a non-finite center coordinate"));
            }
            if !b.radius.is_finite() || b.radius < 0.0 {
                return Err(format!("ball {i} has an invalid radius {}", b.radius));
            }
        }
        Ok(())
    }

    /// Validates `model` and builds the served model of `name` from it,
    /// outside the registry lock; its version is allocated when it is
    /// swapped in.
    fn build(
        name: &str,
        model: &RdGbgModel,
        options: LoadOptions,
        maintained: Option<MaintainedTenant>,
    ) -> Result<ServingModel, String> {
        Self::validate(model, &options)?;
        Ok(Self::build_unchecked(name, model, options, maintained))
    }

    /// The classes the predictor votes over: `options.n_classes`, raised
    /// to the largest ball label + 1.
    fn class_count(model: &RdGbgModel, options: &LoadOptions) -> usize {
        let derived = model
            .balls
            .iter()
            .map(|b| b.label as usize + 1)
            .max()
            .unwrap_or(1);
        options.n_classes.unwrap_or(derived).max(derived)
    }

    /// [`Self::build`] without the validation — the predictor is built
    /// from whatever geometry `model` holds.
    fn build_unchecked(
        name: &str,
        model: &RdGbgModel,
        options: LoadOptions,
        maintained: Option<MaintainedTenant>,
    ) -> ServingModel {
        let n_classes = Self::class_count(model, &options);
        let mut predictor = GbKnn::from_model(model, n_classes, options.k);
        predictor.set_rule(options.rule);
        let resident_bytes =
            estimate_resident_bytes(model) + maintained.as_ref().map_or(0, row_bytes);
        ServingModel {
            name: name.to_string(),
            version: 0,
            n_features: predictor.n_features(),
            n_classes,
            predictor,
            options,
            maintained,
            stats: ModelStats::from_model(model),
            resident_bytes,
        }
    }

    /// Versions `serving` and makes it its tenant's resident model,
    /// replacing any resident version, then enforces the budget.
    ///
    /// A cold reload (`reload`) races commits and deletes: a tenant that a
    /// commit made resident while the loader read the then-current file
    /// keeps the committed model, which is returned instead, and a tenant
    /// removed meanwhile is served to the loading request only, without
    /// being registered again (requests finish on the model they
    /// resolved).
    fn swap_in(&self, mut serving: ServingModel, reload: bool) -> Arc<ServingModel> {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.clock += 1;
        let now = inner.clock;
        if reload {
            if let Some(r) = inner.resident.get_mut(&serving.name) {
                r.last_used = now;
                return Arc::clone(&r.model);
            }
        }
        // Version allocation and the swap happen under one lock so
        // concurrent commits of the same name land in version order (the
        // model left serving is always the highest version acknowledged).
        serving.version = self.versions.fetch_add(1, Ordering::Relaxed) + 1;
        let serving = Arc::new(serving);
        let name = &serving.name;
        if inner.cold.remove(name).is_none() && reload {
            return serving;
        }
        if let Some(old) = inner.resident.insert(
            name.clone(),
            Resident {
                model: Arc::clone(&serving),
                last_used: now,
            },
        ) {
            inner.resident_bytes -= old.model.resident_bytes;
        }
        inner.resident_bytes += serving.resident_bytes;
        self.evict_over_budget(&mut inner, name);
        serving
    }

    /// Evicts least-recently-used residents (never `keep`) until the
    /// resident total fits the budget or nothing evictable is left. A
    /// budget implies a store, so every resident has a file to be reloaded
    /// from.
    fn evict_over_budget(&self, inner: &mut Inner, keep: &str) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while inner.resident_bytes > budget {
            let victim = inner
                .resident
                .iter()
                .filter(|(n, _)| n.as_str() != keep)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(n, _)| n.clone());
            let Some(victim) = victim else { break };
            let entry = inner.resident.remove(&victim).expect("victim is resident");
            inner.resident_bytes -= entry.model.resident_bytes;
            let file_bytes = self
                .store
                .as_ref()
                .and_then(|s| s.file_bytes(&victim))
                .unwrap_or(0);
            inner.cold.insert(victim, file_bytes);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Loads `model` memory-only **without validating it**: the way to
    /// serve a cover the validating loaders refuse, e.g. to prove that a
    /// panicking predict stays contained to its request.
    #[cfg(test)]
    pub(crate) fn load_unchecked(&self, name: &str, model: &RdGbgModel) -> Arc<ServingModel> {
        let serving = Self::build_unchecked(name, model, LoadOptions::default(), None);
        self.swap_in(serving, false)
    }

    /// Refuses a name the attached store could not hold (a memory-only
    /// registry takes any name).
    fn check_name(&self, name: &str) -> Result<(), RegistryError> {
        match &self.store {
            Some(_) => ModelStore::check_name(name).map_err(RegistryError::Rejected),
            None => Ok(()),
        }
    }

    /// The one commit path of every mutation: validates `model` and builds
    /// its predictor, writes the tenant's next store version when a store
    /// is attached, collects old versions, and swaps the new model in.
    /// Returns it with the committed store version (0 without a store).
    /// Nothing in memory changes unless the store write succeeds. Callers
    /// hold the publish lock.
    fn commit(
        &self,
        name: &str,
        model: &RdGbgModel,
        options: LoadOptions,
        maintained: Option<MaintainedTenant>,
    ) -> Result<(Arc<ServingModel>, u64), RegistryError> {
        let mut serving =
            Self::build(name, model, options, maintained).map_err(RegistryError::Rejected)?;
        let mut store_version = 0;
        if let Some(store) = &self.store {
            let saved = store
                .save_version(
                    name,
                    model,
                    &serving.options,
                    serving.n_classes,
                    serving.maintained.as_ref(),
                )
                .map_err(RegistryError::Store)?;
            // Measured-not-estimated, re-measured per commit: a persisted
            // tenant is accounted by its serialized envelope size, so one
            // grown by appends is re-accounted against the budget at every
            // commit.
            serving.resident_bytes = saved.bytes;
            store_version = saved.version;
            self.gc_after_commit(name);
        }
        // A cold reload that started *before* the save above read the old
        // file; let it settle before swapping so the accepted model cannot
        // be clobbered by the stale rebuild. (Reloads starting after the
        // save read the new file, so they can never roll us back.)
        self.settle_loading(name);
        Ok((self.swap_in(serving, false), store_version))
    }

    /// Builds a [`ServingModel`] from a granulation and swaps it in under
    /// `name`, replacing any previous version (a maintained tenant's rows
    /// go with it: the new version has none). When a store is attached
    /// the model is persisted **before** the swap (atomic
    /// write-then-rename), so an accepted `POST /models/{name}` survives a
    /// restart; with no store it is served from memory only. Returns the
    /// loaded handle.
    ///
    /// # Errors
    /// [`RegistryError::Rejected`] on validation failures — empty covers,
    /// `k == 0`, and geometrically invalid balls (non-finite
    /// centers/radii, negative radii, ragged center widths): hot-reload
    /// payloads are untrusted, and a non-finite ball would poison every
    /// later distance comparison in the predict path. Nothing is persisted
    /// or swapped. [`RegistryError::Store`] on store I/O failures (nothing
    /// swapped — memory and disk stay consistent).
    pub fn publish(
        &self,
        name: &str,
        model: &RdGbgModel,
        options: &LoadOptions,
    ) -> Result<Arc<ServingModel>, RegistryError> {
        self.check_name(name)?;
        let _publishing = self.publish_lock.lock().expect("publish lock");
        let (serving, _) = self.commit(name, model, options.clone(), None)?;
        Ok(serving)
    }

    /// Publishes from an already-parsed JSON value (the server's reload
    /// path, which has the request body as a [`serde::Value`] in hand).
    ///
    /// # Errors
    /// Shape mismatches, empty covers, bad options
    /// ([`RegistryError::Rejected`]), or store I/O
    /// ([`RegistryError::Store`]).
    pub fn publish_value(
        &self,
        name: &str,
        value: &Value,
        options: &LoadOptions,
    ) -> Result<Arc<ServingModel>, RegistryError> {
        let model = <RdGbgModel as serde::Deserialize>::from_value(value)
            .map_err(|e| RegistryError::Rejected(format!("bad model: {e}")))?;
        self.publish(name, &model, options)
    }

    /// Sets version-chain retention: after each commit, old versions
    /// beyond the newest `n` are garbage-collected (`None` = keep all).
    pub fn set_max_versions(&self, n: Option<usize>) {
        self.max_versions.store(n.unwrap_or(0), Ordering::Relaxed);
    }

    /// Best-effort chain GC after a commit, honouring `max_versions`.
    fn gc_after_commit(&self, name: &str) {
        let keep = self.max_versions.load(Ordering::Relaxed);
        if keep == 0 {
            return;
        }
        if let Some(store) = &self.store {
            // GC failures never fail the mutation that triggered them —
            // the commit is already durable; retention catches up on the
            // next commit.
            let _ = store.gc_versions(name, keep);
        }
    }

    /// Blocks until no cold reload of `name` is in flight (a reload that
    /// started before a store write read the old file; letting it settle
    /// before the swap keeps the accepted model from being clobbered).
    fn settle_loading(&self, name: &str) {
        let mut inner = self.inner.lock().expect("registry lock");
        while inner.loading.contains(name) {
            inner = self.loaded.wait(inner).expect("registry condvar");
        }
    }

    /// Validates an ingest batch against a fixed width and class count.
    fn validate_rows(
        features: &[f64],
        labels: &[u32],
        n_features: usize,
        n_classes: usize,
    ) -> Result<(), RegistryError> {
        if labels.is_empty() {
            return Err(RegistryError::Rejected("no rows in request".into()));
        }
        if n_features == 0 || features.len() != labels.len() * n_features {
            return Err(RegistryError::Rejected(format!(
                "feature buffer has {} values for {} rows × {} features",
                features.len(),
                labels.len(),
                n_features
            )));
        }
        if !features.iter().all(|x| x.is_finite()) {
            return Err(RegistryError::Rejected(
                "rows contain non-finite feature values".into(),
            ));
        }
        if let Some(&bad) = labels.iter().find(|&&l| (l as usize) >= n_classes) {
            return Err(RegistryError::Rejected(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }
        Ok(())
    }

    /// The rows of the existing maintained tenant `name` grown by a
    /// validated batch, with the options and class count its next commit
    /// keeps. The rows come from the resident model or, when the tenant is
    /// cold, from the store head, without building a predictor for the
    /// old cover. `Ok(None)` means no tenant of that name exists (the
    /// caller may create it); a tenant without backing rows is
    /// `Err(Rejected)`. Must run under the publish lock.
    fn grown_rows(
        &self,
        name: &str,
        features: &[f64],
        labels: &[u32],
        n_features: usize,
    ) -> Result<Option<(LoadOptions, usize, MaintainedTenant)>, RegistryError> {
        let resident = self
            .inner
            .lock()
            .expect("registry lock")
            .resident
            .get(name)
            .map(|r| Arc::clone(&r.model));
        let stored;
        let (options, n_classes, rows) = match &resident {
            Some(serving) => (&serving.options, serving.n_classes, &serving.maintained),
            None => {
                let Some(store) = self
                    .store
                    .as_ref()
                    .filter(|s| s.head_version(name).is_some())
                else {
                    return Ok(None);
                };
                stored = store.load(name).map_err(RegistryError::Store)?;
                let n_classes = Self::class_count(&stored.model, &stored.options);
                (&stored.options, n_classes, &stored.maintained)
            }
        };
        let Some(rows) = rows else {
            return Err(RegistryError::Rejected(format!(
                "tenant '{name}' was published as a fixed model and has no \
                 backing rows; republish through /models/{name} or delete \
                 and recreate it through /rows"
            )));
        };
        if n_features != rows.n_features {
            return Err(RegistryError::Rejected(format!(
                "rows have {n_features} features but tenant '{name}' has {}",
                rows.n_features
            )));
        }
        Self::validate_rows(features, labels, n_features, n_classes)?;
        let grown = MaintainedTenant {
            rho: rows.rho,
            n_features,
            features: [rows.features.as_slice(), features].concat(),
            labels: [rows.labels.as_slice(), labels].concat(),
        };
        Ok(Some((options.clone(), n_classes, grown)))
    }

    /// The rows of a tenant the batch founds, with the options and class
    /// count of its first commit.
    fn founding_rows(
        features: &[f64],
        labels: &[u32],
        n_features: usize,
        create: &CreateOptions,
    ) -> Result<(LoadOptions, usize, MaintainedTenant), RegistryError> {
        if create.rho < 2 {
            return Err(RegistryError::Rejected(format!(
                "rho must be at least 2, got {}",
                create.rho
            )));
        }
        let derived = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(1);
        let n_classes = create.n_classes.unwrap_or(derived).max(derived);
        // Refused before the sweep, which would hold the publish lock only
        // to reach the same refusal.
        if n_classes > MAX_CLASSES {
            return Err(RegistryError::Rejected(too_many_classes(n_classes)));
        }
        Self::validate_rows(features, labels, n_features, n_classes)?;
        let options = LoadOptions {
            n_classes: Some(n_classes),
            ..create.load.clone()
        };
        let rows = MaintainedTenant {
            rho: create.rho,
            n_features,
            features: features.to_vec(),
            labels: labels.to_vec(),
        };
        Ok((options, n_classes, rows))
    }

    /// Appends labelled rows to a maintained tenant (creating it when the
    /// name is entirely new), reruns [`canonical_rd_gbg`] over every row
    /// the tenant now holds, and commits the new cover with the grown rows
    /// as the tenant's next store version. The rows come from the resident
    /// model, or from the store head when the tenant is cold; the grown
    /// row set is a new value, so nothing in memory changes unless the
    /// store write succeeds. The cover depends only on the row sequence
    /// and ρ, not on how the rows were batched (enforced by
    /// `tests/ingest_oracle.rs`).
    ///
    /// `features` is row-major, `labels.len() * n_features` long.
    /// `create` is consulted only when the tenant does not exist yet.
    ///
    /// # Errors
    /// [`RegistryError::Rejected`] for malformed batches, label/width
    /// mismatches, a creating batch whose class count exceeds
    /// [`MAX_CLASSES`] (refused before the sweep), and tenants without
    /// backing rows; [`RegistryError::Store`] when reading the cold
    /// tenant's rows or persisting the new version fails.
    pub fn append_rows(
        &self,
        name: &str,
        features: &[f64],
        labels: &[u32],
        n_features: usize,
        create: &CreateOptions,
    ) -> Result<IngestReceipt, RegistryError> {
        self.check_name(name)?;
        let _publishing = self.publish_lock.lock().expect("publish lock");
        let grown = self.grown_rows(name, features, labels, n_features)?;
        let created = grown.is_none();
        let (options, n_classes, rows) = match grown {
            Some(grown) => grown,
            None => Self::founding_rows(features, labels, n_features, create)?,
        };
        let model = {
            let data = Dataset::from_parts(
                rows.features.clone(),
                rows.labels.clone(),
                n_features,
                n_classes,
            );
            canonical_rd_gbg(&data, rows.rho, options.backend)
        };
        let n_rows = rows.labels.len();
        let (serving, store_version) = self.commit(name, &model, options, Some(rows))?;
        Ok(IngestReceipt {
            serving,
            store_version,
            created,
            n_rows,
        })
    }

    /// Atomically re-activates a retained version: its cover, options and
    /// rows (for a maintained version) are committed as they are, as a
    /// **new** head (the chain stays append-only and single-file-atomic),
    /// and served; nothing is granulated. Appends after it continue from
    /// the rolled-back rows.
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] when the tenant or the pinned version
    /// does not exist; [`RegistryError::Store`] on I/O failures;
    /// [`RegistryError::Rejected`] for registries without a store and for
    /// a version the predictor cannot serve (nothing is written).
    pub fn rollback(&self, name: &str, version: u64) -> Result<RollbackReceipt, RegistryError> {
        let Some(store) = &self.store else {
            return Err(RegistryError::Rejected(
                "rollback requires a persistent store (--model-dir)".into(),
            ));
        };
        if !ModelStore::valid_name(name) {
            return Err(RegistryError::NotFound(format!("no model named '{name}'")));
        }
        let _publishing = self.publish_lock.lock().expect("publish lock");
        let versions = store.versions_on_disk(name);
        if versions.is_empty() {
            return Err(RegistryError::NotFound(format!("no model named '{name}'")));
        }
        if !versions.contains(&version) {
            return Err(RegistryError::NotFound(format!(
                "tenant '{name}' has no version {version} (retained: {versions:?})"
            )));
        }
        let envelope = store
            .load_version(name, version)
            .map_err(RegistryError::Store)?;
        let (serving, store_version) =
            self.commit(name, &envelope.model, envelope.options, envelope.maintained)?;
        Ok(RollbackReceipt {
            serving,
            store_version,
            rolled_back_to: version,
        })
    }

    /// Chain metadata for `GET /models/{name}[?version=]`: `None` pins the
    /// head. Returns `Ok(None)` when the tenant has no store presence (a
    /// memory-only tenant has no chain to inspect).
    ///
    /// # Errors
    /// [`RegistryError::NotFound`] for a pinned version that is not
    /// retained; [`RegistryError::Store`] when reading the version fails.
    pub fn version_info(
        &self,
        name: &str,
        version: Option<u64>,
    ) -> Result<Option<VersionInfo>, RegistryError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        if !ModelStore::valid_name(name) {
            return Ok(None);
        }
        let versions = store.versions_on_disk(name);
        let Some(&head) = versions.last() else {
            return Ok(None);
        };
        let pinned = version.unwrap_or(head);
        if !versions.contains(&pinned) {
            return Err(RegistryError::NotFound(format!(
                "tenant '{name}' has no version {pinned} (retained: {versions:?})"
            )));
        }
        let envelope = store
            .load_version(name, pinned)
            .map_err(RegistryError::Store)?;
        Ok(Some(VersionInfo {
            name: name.to_string(),
            version: pinned,
            head,
            versions,
            parent: envelope.parent,
            n_balls: envelope.model.balls.len(),
            n_rows: envelope.maintained.as_ref().map(|m| m.labels.len()),
            maintained: envelope.maintained.is_some(),
            file_bytes: envelope.file_bytes,
        }))
    }

    /// Resolves a **resident** model by name, bumping its recency (the
    /// caller keeps this exact version for the whole request even across a
    /// reload). Cold tenants return `None` — the request path uses
    /// [`ModelRegistry::acquire`], which reloads them.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<ServingModel>> {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.clock += 1;
        let now = inner.clock;
        inner.resident.get_mut(name).map(|r| {
            r.last_used = now;
            Arc::clone(&r.model)
        })
    }

    /// Request-path lookup: a resident hit returns immediately; a cold
    /// tenant is transparently rebuilt from the store head, its rows
    /// included (single-flight — concurrent callers coalesce onto one disk
    /// load); an unknown name is `Ok(None)`.
    ///
    /// # Errors
    /// Disk or checksum failures during a cold reload (the tenant stays
    /// cold; a later call retries).
    pub fn acquire(&self, name: &str) -> Result<Option<Arc<ServingModel>>, String> {
        {
            let mut inner = self.inner.lock().expect("registry lock");
            loop {
                inner.clock += 1;
                let now = inner.clock;
                if let Some(r) = inner.resident.get_mut(name) {
                    r.last_used = now;
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(Arc::clone(&r.model)));
                }
                if !inner.cold.contains_key(name) {
                    return Ok(None);
                }
                if !inner.loading.contains(name) {
                    inner.loading.insert(name.to_string());
                    break; // this caller performs the load
                }
                inner = self.loaded.wait(inner).expect("registry condvar");
            }
        }
        // Loader path: disk I/O and predictor build happen without the
        // lock; a panic is contained so waiters are never stranded.
        let store = self.store.as_ref().expect("cold entries imply a store");
        let start = Instant::now();
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let envelope = store.load(name)?;
            let mut serving =
                Self::build(name, &envelope.model, envelope.options, envelope.maintained)?;
            // Measured-not-estimated: account the reloaded tenant by the
            // envelope size just read, matching what its commit recorded
            // when it wrote the file.
            serving.resident_bytes = envelope.file_bytes;
            Ok::<_, String>(serving)
        }))
        .unwrap_or_else(|_| Err("panicked rebuilding persisted model".into()));
        let result = match built {
            Ok(serving) => {
                self.stats.cold_reloads.fetch_add(1, Ordering::Relaxed);
                self.stats.reload_latency.observe(start.elapsed());
                Ok(Some(self.swap_in(serving, true)))
            }
            Err(e) => Err(format!("reload '{name}' from store: {e}")),
        };
        let mut inner = self.inner.lock().expect("registry lock");
        inner.loading.remove(name);
        drop(inner);
        self.loaded.notify_all();
        result
    }

    /// Warms the `n` most-recently-written cold tenants (by store-file
    /// mtime — the best recency signal that survives a restart) by
    /// acquiring each, so the first real request after a boot hits a
    /// resident predictor instead of paying a cold reload. Returns how
    /// many tenants were successfully made resident. Reload failures are
    /// skipped, not fatal: preload is an optimization, and the tenant
    /// stays cold for the request path to retry (or quarantine) later.
    pub fn preload_recent(&self, n: usize) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        if n == 0 {
            return 0;
        }
        let mut cold: Vec<(String, std::time::SystemTime)> = {
            let inner = self.inner.lock().expect("registry lock");
            inner
                .cold
                .keys()
                .filter_map(|name| store.modified(name).map(|t| (name.clone(), t)))
                .collect()
        };
        cold.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        cold.truncate(n);
        cold.iter()
            .filter(|(name, _)| matches!(self.acquire(name), Ok(Some(_))))
            .count()
    }

    /// Removes a tenant everywhere: resident state, cold catalog, and the
    /// store file (when a store is attached). Returns whether anything
    /// existed. In-flight requests holding the `Arc` finish unaffected.
    ///
    /// # Errors
    /// Store deletion failures (the registry entry is already gone).
    pub fn remove(&self, name: &str) -> Result<bool, String> {
        let _publishing = self.publish_lock.lock().expect("publish lock");
        let existed = {
            let mut inner = self.inner.lock().expect("registry lock");
            let was_resident = inner.resident.remove(name);
            if let Some(r) = &was_resident {
                inner.resident_bytes -= r.model.resident_bytes;
            }
            let was_cold = inner.cold.remove(name).is_some();
            was_resident.is_some() || was_cold
        };
        // A name the store would reject can't have a file; skipping the
        // delete keeps client-invalid names ("..", ".hidden") a clean
        // not-found instead of a store error (surfaced as a 500).
        let on_disk = match &self.store {
            Some(store) if ModelStore::valid_name(name) => store.delete(name)?,
            _ => false,
        };
        Ok(existed || on_disk)
    }

    /// Sorted model names currently registered (resident + cold).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("registry lock");
        let mut names: Vec<String> = inner
            .resident
            .keys()
            .chain(inner.cold.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Per-tenant rows for `GET /models`, sorted by name.
    #[must_use]
    pub fn entries(&self) -> Vec<ModelEntry> {
        let inner = self.inner.lock().expect("registry lock");
        let mut entries: Vec<ModelEntry> = inner
            .resident
            .iter()
            .map(|(name, r)| ModelEntry {
                name: name.clone(),
                resident: true,
                bytes: r.model.resident_bytes,
                version: Some(r.model.version),
            })
            .chain(inner.cold.iter().map(|(name, &bytes)| ModelEntry {
                name: name.clone(),
                resident: false,
                bytes,
                version: None,
            }))
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Residency totals for `GET /metrics`.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry lock");
        RegistrySnapshot {
            resident: inner.resident.len(),
            cold: inner.cold.len(),
            resident_bytes: inner.resident_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    /// Number of registered models (resident + cold).
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("registry lock");
        inner.resident.len() + inner.cold.len()
    }

    /// True when no model is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;
    use gbabs::{rd_gbg, RdGbgConfig};
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gb_registry_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_get_and_hot_swap_bump_version() {
        let data = DatasetId::S5.generate(0.05, 1);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let reg = ModelRegistry::new();
        let v1 = reg
            .publish("default", &model, &LoadOptions::default())
            .unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(v1.n_classes, data.n_classes());
        assert_eq!(v1.n_features, data.n_features());
        assert!(v1.resident_bytes > 0);
        let held = reg.get("default").unwrap();
        let v2 = reg
            .publish("default", &model, &LoadOptions::default())
            .unwrap();
        assert_eq!(v2.version, 2);
        // the held Arc still points at version 1 (hot swap, not mutation)
        assert_eq!(held.version, 1);
        assert_eq!(reg.get("default").unwrap().version, 2);
        assert_eq!(reg.names(), vec!["default".to_string()]);
    }

    #[test]
    fn json_roundtrip_load_matches_offline_predictor() {
        let data = DatasetId::S5.generate(0.05, 2);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let offline = GbKnn::from_model(&model, data.n_classes(), 1);
        let reg = ModelRegistry::new();
        let json = serde_json::to_string(&model).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        let served = reg
            .publish_value("m", &value, &LoadOptions::default())
            .unwrap();
        assert_eq!(
            served.predictor.predict(&data),
            offline.predict(&data),
            "served predictor must be bit-identical to the offline one"
        );
        assert_eq!(served.stats.n_balls, model.balls.len());
    }

    #[test]
    fn rejects_garbage() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.publish_value(
                "m",
                &Value::Str("not a model".into()),
                &LoadOptions::default()
            ),
            Err(RegistryError::Rejected(_))
        ));
        assert!(reg.get("missing").is_none());
        assert!(reg.acquire("missing").unwrap().is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn rejects_invalid_geometry() {
        use gbabs::GranularBall;
        let ball = |center: Vec<f64>, radius: f64| GranularBall {
            center,
            radius,
            label: 0,
            members: vec![0],
            center_row: None,
            purity: 1.0,
        };
        let reg = ModelRegistry::new();
        let mk = |balls: Vec<GranularBall>| RdGbgModel {
            balls,
            noise: vec![],
            orphan_count: 0,
            iterations: 1,
            metric: gb_dataset::Metric::SqEuclidean,
        };
        for (bad, why) in [
            (mk(vec![ball(vec![0.0], f64::INFINITY)]), "infinite radius"),
            (mk(vec![ball(vec![0.0], -1.0)]), "negative radius"),
            (mk(vec![ball(vec![f64::NAN], 1.0)]), "NaN center"),
            (
                mk(vec![ball(vec![0.0], 1.0), ball(vec![0.0, 1.0], 1.0)]),
                "ragged centers",
            ),
        ] {
            let Err(RegistryError::Rejected(err)) = reg.publish("m", &bad, &LoadOptions::default())
            else {
                panic!("{why} must be rejected");
            };
            assert!(!err.is_empty(), "{why} must carry a message");
            assert!(reg.is_empty(), "{why} must not register");
        }
    }

    #[test]
    fn concurrent_reloads_leave_the_highest_version_serving() {
        let data = DatasetId::S5.generate(0.05, 1);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let reg = ModelRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    reg.publish("m", &model, &LoadOptions::default()).unwrap();
                });
            }
        });
        // Versions are allocated under the swap lock, so the surviving
        // model carries the last version handed out.
        assert_eq!(reg.get("m").unwrap().version, 8);
    }

    #[test]
    fn publish_persists_and_restart_reloads_identically() {
        let dir = tempdir("restart");
        let data = DatasetId::S5.generate(0.05, 4);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let offline = GbKnn::from_model(&model, data.n_classes(), 1);
        let expected = offline.predict(&data);
        {
            let store = ModelStore::open(&dir).unwrap();
            let (reg, report) = ModelRegistry::with_store(store, None).unwrap();
            assert!(report.found.is_empty());
            reg.publish("tenant", &model, &LoadOptions::default())
                .unwrap();
        }
        // "Restart": a fresh registry over the same directory.
        let store = ModelStore::open(&dir).unwrap();
        let (reg, report) = ModelRegistry::with_store(store, None).unwrap();
        assert_eq!(report.found.len(), 1);
        assert!(reg.get("tenant").is_none(), "not resident before first use");
        assert_eq!(reg.len(), 1, "but in the catalog");
        let served = reg.acquire("tenant").unwrap().expect("cold reload");
        assert_eq!(
            served.predictor.predict(&data),
            expected,
            "reloaded predictor must be bit-identical"
        );
        assert_eq!(reg.stats.cold_reloads.load(Ordering::Relaxed), 1);
        assert_eq!(reg.stats.reload_latency.count(), 1);
        // Second acquire is a plain hit.
        assert!(reg.acquire("tenant").unwrap().is_some());
        assert_eq!(reg.stats.hits.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_reload_refuses_a_class_count_above_the_bound() {
        // Envelopes written before the bound existed may carry any count;
        // a cold reload must refuse them rather than build a predictor
        // whose first vote cannot be allocated.
        let dir = tempdir("classes");
        let data = DatasetId::S5.generate(0.05, 4);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let store = ModelStore::open(&dir).unwrap();
        for (name, n_classes) in [("at", MAX_CLASSES), ("above", MAX_CLASSES + 1)] {
            let options = LoadOptions {
                n_classes: Some(n_classes),
                ..LoadOptions::default()
            };
            store.save(name, &model, &options, n_classes).unwrap();
        }
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let at = reg.acquire("at").unwrap().expect("cold reload");
        assert_eq!(at.n_classes, MAX_CLASSES);
        assert_eq!(
            at.predictor.predict(&data),
            GbKnn::from_model(&model, data.n_classes(), 1).predict(&data)
        );
        let err = reg.acquire("above").unwrap_err();
        assert!(err.contains("65537 classes"), "{err}");
        assert!(reg.get("above").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_lru_and_acquire_reloads() {
        let dir = tempdir("evict");
        let data = DatasetId::S5.generate(0.05, 5);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let one = estimate_resident_bytes(&model);
        let store = ModelStore::open(&dir).unwrap();
        // Budget fits one model (plus slack), not two.
        let (reg, _) = ModelRegistry::with_store(store, Some(one + one / 2)).unwrap();
        reg.publish("a", &model, &LoadOptions::default()).unwrap();
        reg.publish("b", &model, &LoadOptions::default()).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.resident, 1, "loading b must evict a: {snap:?}");
        assert_eq!(snap.cold, 1);
        assert_eq!(reg.stats.evictions.load(Ordering::Relaxed), 1);
        assert!(reg.get("a").is_none(), "a is cold");
        assert!(reg.get("b").is_some(), "b is resident");
        // Touch a: transparent reload, which in turn evicts b.
        let a = reg.acquire("a").unwrap().expect("cold reload of a");
        assert_eq!(a.name, "a");
        assert!(reg.get("b").is_none(), "b evicted by a's reload");
        assert_eq!(reg.stats.evictions.load(Ordering::Relaxed), 2);
        assert_eq!(reg.stats.cold_reloads.load(Ordering::Relaxed), 1);
        // Entries report the split.
        let entries = reg.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|e| e.name == "a" && e.resident));
        assert!(entries
            .iter()
            .any(|e| e.name == "b" && !e.resident && e.bytes > 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_footprints_are_measured_envelope_sizes() {
        let dir = tempdir("measured");
        let data = DatasetId::S5.generate(0.05, 9);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let published = reg.publish("t", &model, &LoadOptions::default()).unwrap();
        let on_disk = reg.store().unwrap().file_bytes("t").expect("file exists");
        assert_eq!(
            published.resident_bytes, on_disk,
            "persisted tenant accounted by its serialized envelope size"
        );
        assert_ne!(
            published.resident_bytes,
            estimate_resident_bytes(&model),
            "and not by the cover-geometry estimate"
        );
        // A cold reload lands on the same measured number.
        {
            let store = ModelStore::open(&dir).unwrap();
            let (reg2, _) = ModelRegistry::with_store(store, None).unwrap();
            let reloaded = reg2.acquire("t").unwrap().expect("cold reload");
            assert_eq!(reloaded.resident_bytes, on_disk);
            assert_eq!(reg2.snapshot().resident_bytes, on_disk);
        }
        // Models of a registry without a store keep the estimate — nothing
        // to measure.
        let mem = ModelRegistry::new()
            .publish("mem", &model, &LoadOptions::default())
            .unwrap();
        assert_eq!(mem.resident_bytes, estimate_resident_bytes(&model));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_less_maintained_tenant_accounts_its_rows() {
        // Without a store there is no envelope to measure, so a tenant is
        // accounted by estimate; a maintained tenant's served model holds
        // its rows beside the cover, and they count too.
        let reg = ModelRegistry::new();
        let (f, l) = ingest_batch(300, 7);
        let created = reg
            .append_rows("live", &f, &l, 2, &CreateOptions::default())
            .unwrap();
        let data = Dataset::from_parts(f.clone(), l.clone(), 2, 2);
        let cover =
            estimate_resident_bytes(&gbabs::canonical_rd_gbg(&data, 5, GranulationBackend::Auto));
        let rows = (f.len() * 8 + l.len() * 4) as u64;
        assert_eq!(created.serving.resident_bytes, cover + rows);
        assert_eq!(reg.snapshot().resident_bytes, cover + rows);
        // An append re-accounts the grown rows.
        let (f2, l2) = ingest_batch(20, 8);
        let grown = reg
            .append_rows("live", &f2, &l2, 2, &CreateOptions::default())
            .unwrap();
        let data = Dataset::from_parts([f, f2].concat(), [l, l2].concat(), 2, 2);
        let cover =
            estimate_resident_bytes(&gbabs::canonical_rd_gbg(&data, 5, GranulationBackend::Auto));
        let rows = (320 * 2 * 8 + 320 * 4) as u64;
        assert_eq!(grown.serving.resident_bytes, cover + rows);
        assert_eq!(reg.snapshot().resident_bytes, cover + rows);
    }

    #[test]
    fn concurrent_cold_acquires_coalesce_to_one_disk_load() {
        let dir = tempdir("singleflight");
        let data = DatasetId::S5.generate(0.05, 7);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        {
            let store = ModelStore::open(&dir).unwrap();
            let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
            reg.publish("t", &model, &LoadOptions::default()).unwrap();
        }
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let expected = GbKnn::from_model(&model, data.n_classes(), 1).predict(&data);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let m = reg.acquire("t").unwrap().expect("reload");
                    assert_eq!(m.predictor.predict(&data), expected);
                });
            }
        });
        assert_eq!(
            reg.stats.cold_reloads.load(Ordering::Relaxed),
            1,
            "single-flight: 8 concurrent acquires, one disk load"
        );
        assert_eq!(reg.stats.hits.load(Ordering::Relaxed), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeds an ingest batch: `n` rows of two interleaved Gaussian-ish
    /// clusters (deterministic), flat features + labels.
    fn ingest_batch(n: usize, seed: u64) -> (Vec<f64>, Vec<u32>) {
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut features = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = (i % 2) as u32;
            let cx = if label == 0 { 0.0 } else { 4.0 };
            features.push(cx + next());
            features.push(cx + next());
            labels.push(label);
        }
        (features, labels)
    }

    #[test]
    fn append_rows_creates_appends_and_survives_restart() {
        let dir = tempdir("ingest");
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let (f0, l0) = ingest_batch(40, 1);
        let r0 = reg
            .append_rows("live", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        assert!(r0.created);
        assert_eq!(r0.store_version, 1);
        assert_eq!(r0.n_rows, 40);
        let (f1, l1) = ingest_batch(10, 2);
        let r1 = reg
            .append_rows("live", &f1, &l1, 2, &CreateOptions::default())
            .unwrap();
        assert!(!r1.created);
        assert_eq!(r1.store_version, 2);
        assert_eq!(r1.n_rows, 50);

        // The served cover must equal the from-scratch oracle on the union.
        let mut union_f = f0.clone();
        union_f.extend_from_slice(&f1);
        let mut union_l = l0.clone();
        union_l.extend_from_slice(&l1);
        let union = Dataset::from_parts(union_f.clone(), union_l.clone(), 2, 2);
        let oracle = gbabs::canonical_rd_gbg(&union, 5, GranulationBackend::Auto);
        assert_eq!(r1.serving.stats.n_balls, oracle.balls.len());

        // Restart: the maintained rows persisted, so an append after a
        // fresh boot continues the chain — and still matches the oracle.
        drop(reg);
        let store = ModelStore::open(&dir).unwrap();
        let (reg2, report) = ModelRegistry::with_store(store, None).unwrap();
        assert_eq!(report.found.len(), 1);
        assert_eq!(report.found[0].version, 2);
        let (f2, l2) = ingest_batch(10, 3);
        let r2 = reg2
            .append_rows("live", &f2, &l2, 2, &CreateOptions::default())
            .unwrap();
        assert_eq!(r2.store_version, 3);
        assert_eq!(r2.n_rows, 60);
        union_f.extend_from_slice(&f2);
        union_l.extend_from_slice(&l2);
        let union = Dataset::from_parts(union_f, union_l, 2, 2);
        let oracle = gbabs::canonical_rd_gbg(&union, 5, GranulationBackend::Auto);
        assert_eq!(r2.serving.stats.n_balls, oracle.balls.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_to_fixed_model_is_rejected_and_bad_batches_never_commit() {
        let dir = tempdir("ingest_reject");
        let data = DatasetId::S5.generate(0.05, 3);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        reg.publish("fixed", &model, &LoadOptions::default())
            .unwrap();
        let (f, l) = ingest_batch(10, 4);
        let err = reg
            .append_rows("fixed", &f, &l, 2, &CreateOptions::default())
            .unwrap_err();
        assert!(matches!(err, RegistryError::Rejected(_)), "{err}");
        assert_eq!(
            reg.store().unwrap().head_version("fixed"),
            Some(1),
            "a rejected append must not commit a version"
        );
        // Bad batches on a maintained tenant.
        let (f0, l0) = ingest_batch(40, 5);
        reg.append_rows("live", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        for (bf, bl, why) in [
            (vec![1.0, 2.0, 3.0], vec![0u32], "width mismatch"),
            (vec![1.0, f64::NAN], vec![0], "non-finite feature"),
            (vec![1.0, 2.0], vec![9], "label out of range"),
            (vec![], vec![], "empty batch"),
        ] {
            let err = reg
                .append_rows("live", &bf, &bl, 2, &CreateOptions::default())
                .unwrap_err();
            assert!(matches!(err, RegistryError::Rejected(_)), "{why}: {err}");
        }
        assert_eq!(reg.store().unwrap().head_version("live"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_reactivates_old_content_and_future_appends_fork_from_it() {
        let dir = tempdir("rollback");
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let (f0, l0) = ingest_batch(40, 6);
        reg.append_rows("t", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        let (f1, l1) = ingest_batch(20, 7);
        let r1 = reg
            .append_rows("t", &f1, &l1, 2, &CreateOptions::default())
            .unwrap();
        assert_eq!(r1.n_rows, 60);
        let rb = reg.rollback("t", 1).unwrap();
        assert_eq!(rb.rolled_back_to, 1);
        assert_eq!(rb.store_version, 3, "rollback commits a new head");
        let info = reg.version_info("t", None).unwrap().unwrap();
        assert_eq!(info.head, 3);
        assert_eq!(info.n_rows, Some(40), "head carries the v1 rows again");
        // Pinned reads still see every retained version.
        assert_eq!(
            reg.version_info("t", Some(2)).unwrap().unwrap().n_rows,
            Some(60)
        );
        // An append after the rollback forks from the rolled-back rows.
        let (f2, l2) = ingest_batch(5, 8);
        let r2 = reg
            .append_rows("t", &f2, &l2, 2, &CreateOptions::default())
            .unwrap();
        assert_eq!(r2.n_rows, 45, "60-row branch is dead, 40+5 live");
        assert_eq!(r2.store_version, 4);
        // Unknown versions are NotFound.
        assert!(matches!(
            reg.rollback("t", 99).unwrap_err(),
            RegistryError::NotFound(_)
        ));
        assert!(matches!(
            reg.rollback("ghost", 1).unwrap_err(),
            RegistryError::NotFound(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_rollback_commits_nothing() {
        // A version stored before the class bound existed may vote over
        // more classes than are served. Rolling back to it is refused, and
        // the refusal must leave the chain, its head and the served model
        // as they were, so a restart never meets the refused cover.
        let dir = tempdir("rollback_refused");
        let data = DatasetId::S5.generate(0.05, 4);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let store = ModelStore::open(&dir).unwrap();
        let above = LoadOptions {
            n_classes: Some(MAX_CLASSES + 1),
            ..LoadOptions::default()
        };
        store.save("t", &model, &above, MAX_CLASSES + 1).unwrap();
        store
            .save("t", &model, &LoadOptions::default(), data.n_classes())
            .unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let served = reg.acquire("t").unwrap().expect("cold reload of v2");
        let err = reg.rollback("t", 1).unwrap_err();
        assert!(matches!(err, RegistryError::Rejected(_)), "{err}");
        let store = reg.store().unwrap();
        assert_eq!(store.versions_on_disk("t"), [1, 2]);
        assert_eq!(store.head_version("t"), Some(2));
        let after = reg.get("t").expect("still resident");
        assert!(
            Arc::ptr_eq(&after, &served),
            "the served model is unchanged"
        );
        // A restart serves v2 too.
        let (reg2, _) = ModelRegistry::with_store(ModelStore::open(&dir).unwrap(), None).unwrap();
        let reloaded = reg2.acquire("t").unwrap().expect("cold reload");
        assert_eq!(reloaded.n_classes, data.n_classes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_versions_gc_trims_chains_after_commits() {
        let dir = tempdir("gc");
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        reg.set_max_versions(Some(3));
        let (f0, l0) = ingest_batch(40, 9);
        reg.append_rows("t", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        for round in 0..5 {
            let (f, l) = ingest_batch(4, 10 + round);
            reg.append_rows("t", &f, &l, 2, &CreateOptions::default())
                .unwrap();
        }
        let info = reg.version_info("t", None).unwrap().unwrap();
        assert_eq!(info.head, 6);
        assert_eq!(info.versions, [4, 5, 6], "retention keeps the newest 3");
        assert!(matches!(
            reg.version_info("t", Some(1)).unwrap_err(),
            RegistryError::NotFound(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The error-commits-nothing contract the serving tier promises its
    /// clients: an append whose store commit fails must leave the
    /// in-memory model exactly at the durable head, so retrying the same
    /// batch after a clean error can never double-ingest it. The
    /// mid-append crash torture schedules lean on this to retry 503s.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn failed_store_commit_rolls_the_memory_back_so_retries_are_safe() {
        use crate::store::FaultPolicy;
        let dir = tempdir("ingest_fault");
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        let (f0, l0) = ingest_batch(40, 30);
        let (f1, l1) = ingest_batch(20, 31);
        // Walk the deterministic fault schedule until a seed makes the
        // commit fail (at rate 1.0 some seeds still draw only a latency
        // fault, which succeeds) — each candidate gets a fresh tenant so a
        // seed that happens to commit cannot pollute the one under test.
        let mut failed = false;
        for seed in 0..64 {
            let name = format!("t{seed}");
            reg.append_rows(&name, &f0, &l0, 2, &CreateOptions::default())
                .unwrap();
            let store = reg.store().unwrap();
            store.set_fault_policy(Some(FaultPolicy::new(1.0, seed)));
            let attempt = reg.append_rows(&name, &f1, &l1, 2, &CreateOptions::default());
            store.set_fault_policy(None);
            let Err(err) = attempt else { continue };
            assert!(matches!(err, RegistryError::Store(_)), "{err}");
            failed = true;
            // In memory the serving model still reflects only batch 0.
            let base = Dataset::from_parts(f0.clone(), l0.clone(), 2, 2);
            let oracle0 = gbabs::canonical_rd_gbg(&base, 5, GranulationBackend::Auto);
            assert_eq!(
                reg.get(&name).unwrap().stats.n_balls,
                oracle0.balls.len(),
                "failed commit must not leave the batch half-ingested"
            );
            // The retry lands the batch exactly once.
            let retry = reg
                .append_rows(&name, &f1, &l1, 2, &CreateOptions::default())
                .unwrap();
            assert_eq!(retry.n_rows, 60, "40 + 20, not 40 + 2*20");
            let mut uf = f0.clone();
            uf.extend_from_slice(&f1);
            let mut ul = l0.clone();
            ul.extend_from_slice(&l1);
            let union = Dataset::from_parts(uf, ul, 2, 2);
            let oracle = gbabs::canonical_rd_gbg(&union, 5, GranulationBackend::Auto);
            assert_eq!(retry.serving.stats.n_balls, oracle.balls.len());
            break;
        }
        assert!(failed, "no seed in 0..64 produced a store fault on commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: resident-byte accounting must track append
    /// growth. A tenant grown by `/rows` alone re-measures its footprint at
    /// every version commit, so the LRU byte budget fires without a single
    /// publish or cold reload.
    #[test]
    fn appends_alone_grow_the_footprint_and_force_eviction() {
        let dir = tempdir("ingest_evict");
        let store = ModelStore::open(&dir).unwrap();
        let (f0, l0) = ingest_batch(40, 20);
        // Budget: comfortably fits two 40-row tenants, but not one of them
        // grown several times larger.
        let probe = {
            let store = ModelStore::open(dir.join("probe")).unwrap();
            let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
            reg.append_rows("p", &f0, &l0, 2, &CreateOptions::default())
                .unwrap()
                .serving
                .resident_bytes
        };
        let (reg, _) = ModelRegistry::with_store(store, Some(probe * 3)).unwrap();
        reg.append_rows("bystander", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        reg.append_rows("grower", &f0, &l0, 2, &CreateOptions::default())
            .unwrap();
        assert_eq!(reg.snapshot().resident, 2, "both fit initially");
        let mut evicted = false;
        for round in 0..12 {
            let (f, l) = ingest_batch(40, 21 + round);
            let r = reg
                .append_rows("grower", &f, &l, 2, &CreateOptions::default())
                .unwrap();
            assert!(
                r.serving.resident_bytes > probe,
                "footprint must be re-measured as the tenant grows"
            );
            if reg.stats.evictions.load(Ordering::Relaxed) > 0 {
                evicted = true;
                break;
            }
        }
        assert!(
            evicted,
            "appends alone must push the grower over budget and evict the \
             LRU bystander: {:?}",
            reg.snapshot()
        );
        assert!(reg.get("bystander").is_none(), "bystander went cold");
        assert!(reg.get("grower").is_some(), "the grower itself stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An evicted maintained tenant's rows left memory with its model: an
    /// append reads them from the store head and commits the canonical
    /// cover of the grown rows, without a cold reload of the old cover.
    #[test]
    fn appends_to_evicted_tenants_read_their_rows_from_the_store() {
        let dir = tempdir("evicted_append");
        let (f0, l0) = ingest_batch(40, 40);
        // Budget: fits one 40-row tenant (grown by a few rows), not two.
        let one = {
            let store = ModelStore::open(dir.join("probe")).unwrap();
            let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
            reg.append_rows("p", &f0, &l0, 2, &CreateOptions::default())
                .unwrap()
                .serving
                .resident_bytes
        };
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, Some(one + one / 2)).unwrap();
        let names = ["t0", "t1", "t2", "t3"];
        let mut rows = Vec::new();
        for (seed, name) in (41..).zip(names) {
            let (f, l) = ingest_batch(40, seed);
            reg.append_rows(name, &f, &l, 2, &CreateOptions::default())
                .unwrap();
            rows.push((f, l));
        }
        for name in &names[..3] {
            assert!(reg.get(name).is_none(), "{name} went cold");
        }
        for ((seed, name), (uf, ul)) in (51..).zip(&names[..3]).zip(&mut rows) {
            let (f, l) = ingest_batch(5, seed);
            let r = reg
                .append_rows(name, &f, &l, 2, &CreateOptions::default())
                .unwrap();
            uf.extend_from_slice(&f);
            ul.extend_from_slice(&l);
            let union = Dataset::from_parts(uf.clone(), ul.clone(), 2, 2);
            let oracle = gbabs::canonical_rd_gbg(&union, 5, GranulationBackend::Auto);
            assert!(!r.created, "{name}");
            assert_eq!(r.n_rows, 45, "{name}");
            assert_eq!(r.store_version, 2, "{name}: the chain continues");
            assert_eq!(r.serving.stats.n_balls, oracle.balls.len(), "{name}");
            let committed = reg.version_info(name, None).unwrap().unwrap();
            assert_eq!(committed.head, r.store_version, "{name}");
            assert_eq!(committed.n_rows, Some(45), "{name}");
            assert_eq!(committed.n_balls, oracle.balls.len(), "{name}");
        }
        assert_eq!(reg.stats.cold_reloads.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_of_store_invalid_names_is_not_found_not_an_error() {
        let dir = tempdir("badnames");
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        for bad in ["..", ".hidden", "a b"] {
            assert_eq!(
                reg.remove(bad),
                Ok(false),
                "'{bad}' can never exist in the store, so removing it is a \
                 clean not-found (HTTP 404), not a store error (500)"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_everywhere() {
        let dir = tempdir("remove");
        let data = DatasetId::S5.generate(0.05, 8);
        let model = rd_gbg(&data, &RdGbgConfig::default());
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        reg.publish("x", &model, &LoadOptions::default()).unwrap();
        assert!(reg.remove("x").unwrap());
        assert!(reg.is_empty());
        assert!(reg.acquire("x").unwrap().is_none());
        assert!(!reg.remove("x").unwrap(), "second remove reports nothing");
        // The file is gone: a fresh scan finds nothing.
        let store = ModelStore::open(&dir).unwrap();
        let (reg2, report) = ModelRegistry::with_store(store, None).unwrap();
        assert!(report.found.is_empty());
        assert!(reg2.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
