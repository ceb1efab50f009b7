//! Disk-backed model store: crash-safe persistence for registry tenants.
//!
//! The [`crate::registry::ModelRegistry`] alone is memory-only — a restart
//! loses every model that was hot-reloaded over HTTP. A [`ModelStore`]
//! closes that gap: every accepted model is written to one file per tenant
//! under a `--model-dir`, and a fresh boot scans the directory so the
//! registry repopulates **lazily** (the catalog is known immediately,
//! predictors are rebuilt on first use — see
//! [`ModelRegistry::acquire`](crate::registry::ModelRegistry::acquire)).
//!
//! # On-disk format
//!
//! One file per tenant **version**, `<name>.v<N>.json` (N ≥ 1, strictly
//! increasing), with a one-line header ahead of the JSON payload:
//!
//! ```text
//! GBSTORE1 fnv1a64=<16 hex digits> len=<payload bytes>\n
//! {"format":1,"name":"...","version":3,"parent":"<16 hex digits>",
//!  "k":1,"rule":"surface","n_classes":2,"backend":"auto",
//!  "maintained":{...rows+labels+rho, maintained tenants only...},
//!  "model":{ ...RdGbgModel... }}
//! ```
//!
//! The header names the format version, the FNV-1a/64 checksum of the
//! payload bytes, and the exact payload length, so truncation and bit rot
//! are both detected before a single payload byte is trusted. The envelope
//! persists everything a reload needs to rebuild a **bit-identical**
//! predictor: the ball cover plus the [`LoadOptions`] it was accepted with
//! (`k`, distance rule, class count, backend label), and for maintained
//! tenants the backing rows so incremental ingest survives restarts.
//!
//! # Version chain
//!
//! Every mutation (publish, `/rows` append, rollback) writes a **new
//! immutable version file**; nothing is ever rewritten in place. The
//! envelope's `version` must match the filename's `v<N>` and `parent`
//! carries the payload checksum of the previously committed version (the
//! chain link; `null` for a chain root). The **active** version of a
//! tenant is simply the highest `N` present — activation is one atomic
//! file rename, so a crash mid-mutation leaves either the parent active
//! (new file absent or torn → quarantined at boot) or the child active
//! (complete file present), never a torn hybrid. Rollback re-activates an
//! old version by copying its content forward as a new head, which keeps
//! the chain append-only and single-file-atomic. Pre-chain stores
//! (`<name>.json`, no `version` field) load as version 0 chain roots.
//! Old versions beyond a retention budget are garbage-collected with
//! [`ModelStore::gc_versions`]; the head is never collected.
//!
//! Tenant names ending in a `.v<digits>` component are rejected to keep
//! the `tenant × version → filename` mapping unambiguous.
//!
//! # Crash safety
//!
//! [`ModelStore::save`] never writes a tenant file in place: the bytes go
//! to a hidden temp file in the same directory, the temp file is fsync'd,
//! renamed over the final name (atomic on POSIX), and the directory is
//! fsync'd so the rename itself survives a power cut. Readers therefore
//! see either the old complete file or the new complete file, never a
//! torn mix.
//!
//! # Quarantine
//!
//! [`ModelStore::scan`] (run once at boot) verifies every `<name>.json`
//! header + checksum + envelope shape. A file that fails is renamed to
//! `<name>.json.quarantine` — out of the catalog, but preserved for the
//! operator to inspect — and the boot continues; one corrupt tenant never
//! takes the server down or hides the healthy ones.
//!
//! # Fault injection (feature `fault-inject`, on by default)
//!
//! The crash-safety story above is **tested**, not assumed: behind the
//! `fault-inject` feature the store carries a runtime [`FaultPolicy`]
//! seam that deterministically injects torn writes, failed fsyncs,
//! interrupted renames, short reads, and latency into `save`/`load`. The
//! torture tests and the CLI's `--store-fault-rate` flag drive it; build
//! with `--no-default-features` for a binary with no injection code.

use crate::registry::LoadOptions;
use gb_dataset::index::GranulationBackend;
use gbabs::{DistanceRule, RdGbgModel};
use serde::{Serialize, Value};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic tag opening every store file header (format version 1).
const MAGIC: &str = "GBSTORE1";
/// Envelope `format` field value written by this version.
const FORMAT: f64 = 1.0;
/// Suffix appended to corrupt files at boot.
const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Splits a file stem of the form `<tenant>.v<N>` into `(tenant, N)`.
/// Returns `None` for stems without a version component (legacy files).
fn split_version_stem(stem: &str) -> Option<(&str, u64)> {
    let (tenant, last) = stem.rsplit_once('.')?;
    let digits = last.strip_prefix('v')?;
    if tenant.is_empty() || digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((tenant, digits.parse().ok()?))
}

/// True when `file_name` is part of `tenant`'s on-disk footprint: a legacy
/// or version file, a quarantined sibling of either, or a stray temp file.
fn file_belongs_to_tenant(file_name: &str, tenant: &str) -> bool {
    let name = file_name
        .strip_suffix(QUARANTINE_SUFFIX)
        .unwrap_or(file_name);
    let name = match name.strip_prefix('.') {
        // Hidden files are ours only when they are `.{...}.tmp` litter.
        Some(rest) => match rest.strip_suffix(".tmp") {
            Some(base) => base,
            None => return false,
        },
        None => name,
    };
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    stem == tenant || split_version_stem(stem).is_some_and(|(t, _)| t == tenant)
}

/// FNV-1a 64-bit checksum (dependency-free, stable across platforms).
#[must_use]
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The backing rows of a maintained tenant, persisted alongside the cover
/// so ingest survives restarts (the maintained model is rebuilt
/// deterministically from these rows on cold load).
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainedTenant {
    /// Density tolerance ρ the cover is maintained under.
    pub rho: usize,
    /// Feature count per row.
    pub n_features: usize,
    /// Row-major feature buffer (initial rows + appends, arrival order).
    pub features: Vec<f64>,
    /// One label per row.
    pub labels: Vec<u32>,
}

/// A model as read back from disk: the cover plus the load options it was
/// accepted with, sufficient to rebuild a bit-identical predictor.
#[derive(Debug)]
pub struct StoredEnvelope {
    /// Tenant name (the file stem without the `.v<N>` version component).
    pub name: String,
    /// The persisted ball cover.
    pub model: RdGbgModel,
    /// Load options to rebuild the predictor exactly as accepted.
    pub options: LoadOptions,
    /// Version of this envelope in the tenant's chain (0 = pre-chain
    /// legacy file).
    pub version: u64,
    /// Payload checksum of the previously committed version (`None` for a
    /// chain root).
    pub parent: Option<u64>,
    /// Backing rows of a maintained tenant (`None` for model-only
    /// tenants).
    pub maintained: Option<MaintainedTenant>,
    /// Size of the serialized envelope as read (header + payload) — the
    /// measured footprint the registry accounts against its byte budget.
    pub file_bytes: u64,
}

/// Catalog entry produced by [`ModelStore::scan`].
#[derive(Debug, Clone)]
pub struct StoredMeta {
    /// Tenant name.
    pub name: String,
    /// Active (highest valid) version of the tenant's chain.
    pub version: u64,
    /// Size of the active version file on disk.
    pub file_bytes: u64,
}

/// Receipt for one committed version: what [`ModelStore::save_version`]
/// wrote and the identity the registry needs for accounting and chaining.
#[derive(Debug, Clone, Copy)]
pub struct SavedVersion {
    /// Version number committed (previous head + 1).
    pub version: u64,
    /// Serialized size (header + payload) — the measured footprint the
    /// registry accounts against its byte budget.
    pub bytes: u64,
    /// FNV-1a/64 checksum of the payload — the chain link the *next*
    /// version will record as its parent.
    pub checksum: u64,
}

/// Outcome of a boot-time directory scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Tenants with a valid store file, ready for lazy reload.
    pub found: Vec<StoredMeta>,
    /// Files that failed validation and were renamed aside.
    pub quarantined: Vec<PathBuf>,
}

/// A directory of persisted tenant models. See the module docs for the
/// format and durability guarantees.
pub struct ModelStore {
    dir: PathBuf,
    /// Fault-injection seam (interior mutability so tests and the CLI can
    /// arm it through the shared `&ModelStore` the registry hands out).
    #[cfg(feature = "fault-inject")]
    faults: std::sync::Mutex<FaultSeam>,
}

/// Deterministic fault-injection policy for store I/O — the test seam the
/// crash-recovery torture suite and `--store-fault-rate` drive. Each store
/// operation draws from a seeded generator; with probability `rate` one
/// fault fires: on `save` a torn write (truncated bytes land on the
/// **final** path, simulating a filesystem that broke rename atomicity), a
/// failed fsync, an interrupted rename (temp file left behind), or
/// injected latency; on `load` a short read or injected latency. Every
/// failure mode must surface as a clean retryable error or a quarantine —
/// never a silently wrong model.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Probability in `[0, 1]` that one store operation draws a fault.
    pub rate: f64,
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Delay applied by latency faults.
    pub latency: std::time::Duration,
}

#[cfg(feature = "fault-inject")]
impl FaultPolicy {
    /// A policy with the given rate and seed and a 1 ms latency fault.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            rate,
            seed,
            latency: std::time::Duration::from_millis(1),
        }
    }
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Default)]
struct FaultSeam {
    policy: Option<FaultPolicy>,
    rng: u64,
    injected: u64,
}

/// SplitMix64 step (deterministic, dependency-free).
#[cfg(feature = "fault-inject")]
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ModelStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    /// Propagates directory-creation failures, and rejects a path that
    /// exists but is not a directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if !dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotADirectory,
                format!("{} is not a directory", dir.display()),
            ));
        }
        Ok(Self {
            dir,
            #[cfg(feature = "fault-inject")]
            faults: std::sync::Mutex::new(FaultSeam::default()),
        })
    }

    /// Arms (or with `None`, disarms) the fault-injection seam. The
    /// injected-fault counter survives re-arming.
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_policy(&self, policy: Option<FaultPolicy>) {
        let mut seam = self.faults.lock().expect("fault seam");
        if let Some(p) = &policy {
            seam.rng = p.seed;
        }
        seam.policy = policy;
    }

    /// Total faults injected since the store was opened.
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.faults.lock().expect("fault seam").injected
    }

    /// One Bernoulli draw against the armed policy; on a hit, returns a
    /// deterministic 64-bit value selecting the fault kind plus the
    /// configured latency.
    #[cfg(feature = "fault-inject")]
    fn draw_fault(&self) -> Option<(u64, std::time::Duration)> {
        let mut seam = self.faults.lock().expect("fault seam");
        let policy = seam.policy.clone()?;
        let unit = (next_u64(&mut seam.rng) >> 11) as f64 / (1u64 << 53) as f64;
        if unit < policy.rate {
            seam.injected += 1;
            Some((next_u64(&mut seam.rng), policy.latency))
        } else {
            None
        }
    }

    /// Executes one drawn save-path fault. `Some(Err(..))` aborts the save
    /// (torn write / failed fsync / interrupted rename); `None` means the
    /// fault was pure latency and the real write should proceed.
    #[cfg(feature = "fault-inject")]
    fn inject_save_fault(
        &self,
        draw: u64,
        latency: std::time::Duration,
        path: &Path,
        header: &str,
        payload: &str,
    ) -> Option<Result<u64, String>> {
        match draw % 4 {
            0 => {
                // Torn write: a prefix of the new bytes lands on the FINAL
                // path, clobbering the previous version — the worst case a
                // lying filesystem can produce. Recovery must quarantine
                // this file, never parse it.
                let mut full = Vec::with_capacity(header.len() + payload.len());
                full.extend_from_slice(header.as_bytes());
                full.extend_from_slice(payload.as_bytes());
                let cut = 1 + (draw >> 2) as usize % (full.len().max(2) - 1);
                let _ = fs::write(path, &full[..cut]);
                Some(Err(format!(
                    "injected fault: torn write ({} of {} bytes) to {}",
                    cut,
                    full.len(),
                    path.display()
                )))
            }
            1 => Some(Err(format!(
                "injected fault: fsync failed for {}",
                path.display()
            ))),
            2 => {
                // Interrupted rename: the temp file is fully written and
                // durable but never renamed — the previous version must
                // keep serving and the temp file must stay invisible.
                let tmp = path.with_file_name(format!(
                    ".{}.tmp",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("t")
                ));
                let _ = fs::write(&tmp, format!("{header}{payload}"));
                Some(Err(format!(
                    "injected fault: rename interrupted for {}",
                    path.display()
                )))
            }
            _ => {
                std::thread::sleep(latency);
                None
            }
        }
    }

    /// Applies a drawn load-path fault: either truncates the bytes (short
    /// read — verification must catch it) or sleeps.
    #[cfg(feature = "fault-inject")]
    fn inject_load_fault(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some((draw, latency)) = self.draw_fault() {
            if draw % 2 == 0 {
                let cut = (draw >> 1) as usize % bytes.len().max(1);
                bytes.truncate(cut);
            } else {
                std::thread::sleep(latency);
            }
        }
        bytes
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when `name` is usable as a tenant file stem: non-empty, at
    /// most 128 bytes, `[A-Za-z0-9._-]` only, not starting with `.`
    /// (hidden files are reserved for temp files), and not ending in a
    /// `.v<digits>` component (reserved for version files, so the
    /// `tenant × version → filename` mapping stays unambiguous).
    #[must_use]
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 128
            && !name.starts_with('.')
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
            && split_version_stem(name).is_none()
    }

    /// Path of the pre-chain legacy file (version 0).
    fn path_for(&self, name: &str) -> Result<PathBuf, String> {
        self.check_name(name)?;
        Ok(self.dir.join(format!("{name}.json")))
    }

    /// Path of one version file in the tenant's chain.
    fn version_path(&self, name: &str, version: u64) -> Result<PathBuf, String> {
        self.check_name(name)?;
        if version == 0 {
            return self.path_for(name);
        }
        Ok(self.dir.join(format!("{name}.v{version}.json")))
    }

    fn check_name(&self, name: &str) -> Result<(), String> {
        if !Self::valid_name(name) {
            return Err(format!(
                "invalid model name '{name}': use 1-128 chars of [A-Za-z0-9._-], \
                 not starting with '.' or ending in '.v<digits>'"
            ));
        }
        Ok(())
    }

    /// Every on-disk version of `name`, ascending (0 = legacy file). Files
    /// are listed, not validated — the boot scan is what quarantines
    /// corrupt chain members.
    #[must_use]
    pub fn versions_on_disk(&self, name: &str) -> Vec<u64> {
        if !Self::valid_name(name) {
            return Vec::new();
        }
        let mut versions: Vec<u64> = Vec::new();
        if self.dir.join(format!("{name}.json")).exists() {
            versions.push(0);
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.filter_map(Result::ok) {
                let file_name = entry.file_name();
                let Some(stem) = file_name.to_str().and_then(|f| f.strip_suffix(".json")) else {
                    continue;
                };
                if let Some((tenant, v)) = split_version_stem(stem) {
                    if tenant == name {
                        versions.push(v);
                    }
                }
            }
        }
        versions.sort_unstable();
        versions
    }

    /// The active (highest on-disk) version of `name`, if any file exists.
    #[must_use]
    pub fn head_version(&self, name: &str) -> Option<u64> {
        self.versions_on_disk(name).last().copied()
    }

    /// Persists `model` + `options` under `name` as the next version of
    /// its chain. Convenience wrapper over [`ModelStore::save_version`]
    /// returning just the serialized size, for callers that do not track
    /// chains.
    ///
    /// # Errors
    /// Invalid names and any I/O failure, stringified for the HTTP layer.
    pub fn save(
        &self,
        name: &str,
        model: &RdGbgModel,
        options: &LoadOptions,
        n_classes: usize,
    ) -> Result<u64, String> {
        self.save_version(name, model, options, n_classes, None)
            .map(|saved| saved.bytes)
    }

    /// Commits a new immutable version: head + 1, with `parent` set to the
    /// current head's payload checksum (the chain link). The write is
    /// atomic (temp → fsync → rename → dir fsync), so a crash leaves
    /// either the parent active or the complete child active.
    ///
    /// # Errors
    /// Invalid names and any I/O failure, stringified for the HTTP layer.
    pub fn save_version(
        &self,
        name: &str,
        model: &RdGbgModel,
        options: &LoadOptions,
        n_classes: usize,
        maintained: Option<&MaintainedTenant>,
    ) -> Result<SavedVersion, String> {
        let (version, parent) = match self.head_version(name) {
            Some(head) => (head + 1, self.payload_checksum(name, head)),
            None => (1, None),
        };
        let path = self.version_path(name, version)?;
        let payload = render_envelope(name, model, options, n_classes, version, parent, maintained);
        let checksum = fnv1a64(payload.as_bytes());
        let header = format!("{MAGIC} fnv1a64={checksum:016x} len={}\n", payload.len());
        #[cfg(feature = "fault-inject")]
        if let Some((draw, latency)) = self.draw_fault() {
            if let Some(result) = self.inject_save_fault(draw, latency, &path, &header, &payload) {
                return result.map(|bytes| SavedVersion {
                    version,
                    bytes,
                    checksum,
                });
            }
        }
        let tmp = self.dir.join(format!(".{name}.v{version}.json.tmp"));
        let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", tmp.display());
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io("create", e))?;
            f.write_all(header.as_bytes())
                .and_then(|()| f.write_all(payload.as_bytes()))
                .map_err(|e| io("write", e))?;
            f.sync_all().map_err(|e| io("fsync", e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            format!("rename into {}: {e}", path.display())
        })?;
        // fsync the directory so the rename itself is durable.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(SavedVersion {
            version,
            bytes: (header.len() + payload.len()) as u64,
            checksum,
        })
    }

    /// Payload checksum of one on-disk version, read from its header line
    /// (no payload verification — used only as the best-effort chain link
    /// for the next commit).
    fn payload_checksum(&self, name: &str, version: u64) -> Option<u64> {
        let path = self.version_path(name, version).ok()?;
        let bytes = fs::read(path).ok()?;
        let newline = bytes.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&bytes[..newline]).ok()?;
        header
            .split_whitespace()
            .find_map(|p| p.strip_prefix("fnv1a64="))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
    }

    /// Reads, checksums, and parses the **active** (highest on-disk)
    /// version of `name`.
    ///
    /// # Errors
    /// Missing tenants, checksum/format mismatches, and envelope-shape
    /// failures, each with a message naming the file. A torn head is an
    /// error here — the boot scan is what quarantines it and thereby
    /// re-activates the parent.
    pub fn load(&self, name: &str) -> Result<StoredEnvelope, String> {
        let head = self
            .head_version(name)
            .ok_or_else(|| format!("no store file for tenant '{name}'"))?;
        self.load_version(name, head)
    }

    /// Reads, checksums, and parses one pinned version of `name`'s chain.
    ///
    /// # Errors
    /// Missing versions, checksum/format mismatches, and envelope-shape
    /// failures, each with a message naming the file.
    pub fn load_version(&self, name: &str, version: u64) -> Result<StoredEnvelope, String> {
        let path = self.version_path(name, version)?;
        let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        #[cfg(feature = "fault-inject")]
        let bytes = self.inject_load_fault(bytes);
        let payload = verify(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut envelope =
            parse_envelope(name, payload).map_err(|e| format!("{}: {e}", path.display()))?;
        if envelope.version != version {
            return Err(format!(
                "{}: envelope says version {} but the filename says {version}",
                path.display(),
                envelope.version
            ));
        }
        envelope.file_bytes = bytes.len() as u64;
        Ok(envelope)
    }

    /// Current on-disk size of the tenant's active version file, if any
    /// (used to label cold catalog entries).
    #[must_use]
    pub fn file_bytes(&self, name: &str) -> Option<u64> {
        let head = self.head_version(name)?;
        let path = self.version_path(name, head).ok()?;
        fs::metadata(path).map(|m| m.len()).ok()
    }

    /// Modification time of the tenant's active version file, if any —
    /// the recency signal `--preload` ranks tenants by at boot.
    #[must_use]
    pub fn modified(&self, name: &str) -> Option<std::time::SystemTime> {
        let head = self.head_version(name)?;
        let path = self.version_path(name, head).ok()?;
        fs::metadata(path).and_then(|m| m.modified()).ok()
    }

    /// Deletes the tenant's **entire chain**: every version file, the
    /// legacy file, quarantined siblings, and stray temp files. Returns
    /// `false` when there was nothing to delete.
    ///
    /// # Errors
    /// Invalid names and I/O failures other than not-found.
    pub fn delete(&self, name: &str) -> Result<bool, String> {
        self.check_name(name)?;
        let mut removed = false;
        let mut errors: Vec<String> = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) => return Err(format!("list {}: {e}", self.dir.display())),
        };
        for entry in entries.filter_map(Result::ok) {
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            if !file_belongs_to_tenant(file_name, name) {
                continue;
            }
            match fs::remove_file(entry.path()) {
                Ok(()) => removed = true,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => errors.push(format!("delete {}: {e}", entry.path().display())),
            }
        }
        if removed {
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        if let Some(first) = errors.into_iter().next() {
            return Err(first);
        }
        Ok(removed)
    }

    /// Garbage-collects the tenant's chain down to the `keep` newest
    /// versions (the head is always retained; `keep` is clamped to ≥ 1).
    /// Returns the versions removed.
    ///
    /// # Errors
    /// Invalid names and I/O failures other than not-found.
    pub fn gc_versions(&self, name: &str, keep: usize) -> Result<Vec<u64>, String> {
        let keep = keep.max(1);
        let versions = self.versions_on_disk(name);
        if versions.len() <= keep {
            return Ok(Vec::new());
        }
        let mut removed = Vec::new();
        for &v in &versions[..versions.len() - keep] {
            let path = self.version_path(name, v)?;
            match fs::remove_file(&path) {
                Ok(()) => removed.push(v),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("gc {}: {e}", path.display())),
            }
        }
        if !removed.is_empty() {
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        Ok(removed)
    }

    /// Validates every store file in the directory: well-formed files
    /// become chain members, corrupt ones are renamed aside with a
    /// `.quarantine` suffix (never deleted) and reported. Each tenant
    /// yields one catalog entry naming its active (highest **valid**)
    /// version — so quarantining a torn head is exactly what re-activates
    /// the parent after a mid-mutation crash.
    ///
    /// # Errors
    /// Propagates directory-listing failures only — per-file failures are
    /// quarantines, not errors.
    pub fn scan(&self) -> std::io::Result<ScanReport> {
        let mut report = ScanReport::default();
        // tenant -> (version, file_bytes) of the highest valid version.
        let mut heads: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        paths.sort();
        for path in paths {
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = file_name.strip_suffix(".json") else {
                continue; // temp files, quarantined files, foreign files
            };
            if stem.starts_with('.') {
                continue; // hidden temp files
            }
            let (tenant, version) = match split_version_stem(stem) {
                Some((tenant, version)) => (tenant, version),
                None => (stem, 0),
            };
            if !Self::valid_name(tenant) {
                continue;
            }
            let ok = fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    let payload = verify(&bytes)?;
                    check_envelope_shape(tenant, version, payload)
                });
            match ok {
                Ok(()) => {
                    let file_bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    let head = heads.entry(tenant.to_string()).or_insert((version, 0));
                    if version >= head.0 {
                        *head = (version, file_bytes);
                    }
                }
                Err(_) => {
                    let aside = path.with_file_name(format!("{file_name}{QUARANTINE_SUFFIX}"));
                    // Best effort: even if the rename fails the file is
                    // still excluded from the catalog.
                    let _ = fs::rename(&path, &aside);
                    report.quarantined.push(aside);
                }
            }
        }
        for (name, (version, file_bytes)) in heads {
            report.found.push(StoredMeta {
                name,
                version,
                file_bytes,
            });
        }
        Ok(report)
    }
}

/// Splits a raw file into header + payload and verifies magic, declared
/// length, and checksum. Returns the payload text.
fn verify(bytes: &[u8]) -> Result<&str, String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let header =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| "non-UTF-8 header".to_string())?;
    let payload = &bytes[newline + 1..];
    let mut parts = header.split_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(format!("bad magic in header '{header}'"));
    }
    let mut checksum = None;
    let mut len = None;
    for part in parts {
        if let Some(hex) = part.strip_prefix("fnv1a64=") {
            checksum = u64::from_str_radix(hex, 16).ok();
        } else if let Some(n) = part.strip_prefix("len=") {
            len = n.parse::<usize>().ok();
        }
    }
    let (Some(checksum), Some(len)) = (checksum, len) else {
        return Err(format!("incomplete header '{header}'"));
    };
    if payload.len() != len {
        return Err(format!(
            "payload is {} bytes but header declares {len} (truncated?)",
            payload.len()
        ));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(format!(
            "checksum mismatch: header fnv1a64={checksum:016x}, payload {actual:016x}"
        ));
    }
    std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_string())
}

fn rule_name(rule: DistanceRule) -> &'static str {
    match rule {
        DistanceRule::Surface => "surface",
        DistanceRule::Center => "center",
    }
}

/// Renders the JSON payload (no header) for one version of one tenant.
fn render_envelope(
    name: &str,
    model: &RdGbgModel,
    options: &LoadOptions,
    n_classes: usize,
    version: u64,
    parent: Option<u64>,
    maintained: Option<&MaintainedTenant>,
) -> String {
    let mut fields = vec![
        ("format".into(), Value::Num(FORMAT)),
        ("name".into(), Value::Str(name.to_string())),
        ("version".into(), Value::Num(version as f64)),
        (
            "parent".into(),
            parent.map_or(Value::Null, |p| Value::Str(format!("{p:016x}"))),
        ),
        ("k".into(), Value::Num(options.k as f64)),
        ("rule".into(), Value::Str(rule_name(options.rule).into())),
        ("n_classes".into(), Value::Num(n_classes as f64)),
        ("backend".into(), Value::Str(options.backend.to_string())),
    ];
    if let Some(m) = maintained {
        fields.push((
            "maintained".into(),
            Value::Obj(vec![
                ("rho".into(), Value::Num(m.rho as f64)),
                ("n_features".into(), Value::Num(m.n_features as f64)),
                (
                    "features".into(),
                    Value::Arr(m.features.iter().map(|&x| Value::Num(x)).collect()),
                ),
                (
                    "labels".into(),
                    Value::Arr(m.labels.iter().map(|&l| Value::Num(f64::from(l))).collect()),
                ),
            ]),
        ));
    }
    fields.push(("model".into(), model.to_value()));
    serde_json::to_string(&Value::Obj(fields)).unwrap_or_else(|_| "{}".into())
}

/// Everything `envelope_fields` decodes short of the ball cover itself.
struct EnvelopeFields {
    v: Value,
    k: usize,
    rule: DistanceRule,
    n_classes: usize,
    backend: GranulationBackend,
    version: u64,
    parent: Option<u64>,
    maintained: Option<MaintainedTenant>,
}

/// Envelope fields shared by full parse and boot-time shape check.
fn envelope_fields(expected_name: &str, payload: &str) -> Result<EnvelopeFields, String> {
    let v: Value = serde_json::from_str(payload).map_err(|e| format!("bad envelope JSON: {e}"))?;
    match v.get("format") {
        Some(Value::Num(f)) if *f == FORMAT => {}
        other => return Err(format!("unsupported store format {other:?}")),
    }
    match v.get("name") {
        Some(Value::Str(n)) if n == expected_name => {}
        other => {
            return Err(format!(
                "envelope names {other:?} but the file stem is '{expected_name}'"
            ))
        }
    }
    // Pre-chain envelopes have no `version` field: they are version 0
    // chain roots by definition.
    let version = match v.get("version") {
        None => 0,
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        other => return Err(format!("bad 'version' {other:?}")),
    };
    let parent = match v.get("parent") {
        None | Some(Value::Null) => None,
        Some(Value::Str(hex)) => Some(
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad 'parent' checksum '{hex}'"))?,
        ),
        other => return Err(format!("bad 'parent' {other:?}")),
    };
    let k = match v.get("k") {
        Some(Value::Num(n)) if *n >= 1.0 => *n as usize,
        other => return Err(format!("bad 'k' {other:?}")),
    };
    let rule = match v.get("rule") {
        Some(Value::Str(s)) if s == "surface" => DistanceRule::Surface,
        Some(Value::Str(s)) if s == "center" => DistanceRule::Center,
        other => return Err(format!("bad 'rule' {other:?}")),
    };
    let n_classes = match v.get("n_classes") {
        Some(Value::Num(n)) if *n >= 1.0 => *n as usize,
        other => return Err(format!("bad 'n_classes' {other:?}")),
    };
    let backend = match v.get("backend") {
        Some(Value::Str(s)) => {
            GranulationBackend::from_str_opt(s).ok_or_else(|| format!("unknown backend '{s}'"))?
        }
        other => return Err(format!("bad 'backend' {other:?}")),
    };
    let maintained = match v.get("maintained") {
        None | Some(Value::Null) => None,
        Some(m @ Value::Obj(_)) => Some(parse_maintained(m, n_classes)?),
        other => return Err(format!("bad 'maintained' {other:?}")),
    };
    if !matches!(v.get("model"), Some(Value::Obj(_))) {
        return Err("missing 'model' object".into());
    }
    Ok(EnvelopeFields {
        v,
        k,
        rule,
        n_classes,
        backend,
        version,
        parent,
        maintained,
    })
}

/// Decodes and validates the `maintained` block of a maintained tenant.
fn parse_maintained(m: &Value, n_classes: usize) -> Result<MaintainedTenant, String> {
    let rho = match m.get("rho") {
        Some(Value::Num(n)) if *n >= 1.0 => *n as usize,
        other => return Err(format!("bad 'maintained.rho' {other:?}")),
    };
    let n_features = match m.get("n_features") {
        Some(Value::Num(n)) if *n >= 1.0 => *n as usize,
        other => return Err(format!("bad 'maintained.n_features' {other:?}")),
    };
    let features = match m.get("features") {
        Some(Value::Arr(xs)) => xs
            .iter()
            .map(|x| match x {
                Value::Num(f) => Ok(*f),
                other => Err(format!("bad feature value {other:?}")),
            })
            .collect::<Result<Vec<f64>, String>>()?,
        other => return Err(format!("bad 'maintained.features' {other:?}")),
    };
    let labels = match m.get("labels") {
        Some(Value::Arr(xs)) => xs
            .iter()
            .map(|x| match x {
                Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 && (*f as usize) < n_classes => {
                    Ok(*f as u32)
                }
                other => Err(format!("bad label value {other:?}")),
            })
            .collect::<Result<Vec<u32>, String>>()?,
        other => return Err(format!("bad 'maintained.labels' {other:?}")),
    };
    if features.len() != labels.len() * n_features {
        return Err(format!(
            "maintained rows are torn: {} feature values for {} labels × {} features",
            features.len(),
            labels.len(),
            n_features
        ));
    }
    Ok(MaintainedTenant {
        rho,
        n_features,
        features,
        labels,
    })
}

/// Full parse: envelope fields + the ball cover itself.
fn parse_envelope(expected_name: &str, payload: &str) -> Result<StoredEnvelope, String> {
    let fields = envelope_fields(expected_name, payload)?;
    let model_value = fields.v.get("model").expect("checked by envelope_fields");
    let model = <RdGbgModel as serde::Deserialize>::from_value(model_value)
        .map_err(|e| format!("bad persisted model: {e}"))?;
    Ok(StoredEnvelope {
        name: expected_name.to_string(),
        model,
        options: LoadOptions {
            k: fields.k,
            rule: fields.rule,
            n_classes: Some(fields.n_classes),
            backend: fields.backend,
        },
        version: fields.version,
        parent: fields.parent,
        maintained: fields.maintained,
        // Filled in by `ModelStore::load`, which knows the raw file size.
        file_bytes: 0,
    })
}

/// Boot-time validation: header already checked; verify the envelope shape
/// (including that the embedded version matches the filename) without
/// paying for a full cover deserialization per tenant.
fn check_envelope_shape(
    expected_name: &str,
    expected_version: u64,
    payload: &str,
) -> Result<(), String> {
    let fields = envelope_fields(expected_name, payload)?;
    if fields.version != expected_version {
        return Err(format!(
            "envelope says version {} but the filename says {expected_version}",
            fields.version
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_dataset::catalog::DatasetId;
    use gbabs::{rd_gbg, RdGbgConfig};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gb_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture_model() -> RdGbgModel {
        let data = DatasetId::S5.generate(0.05, 1);
        rd_gbg(&data, &RdGbgConfig::default())
    }

    #[test]
    fn roundtrip_preserves_model_and_options() {
        let dir = tempdir("roundtrip");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        let options = LoadOptions {
            k: 3,
            rule: DistanceRule::Center,
            n_classes: Some(2),
            backend: GranulationBackend::KdTree,
        };
        store.save("alpha", &model, &options, 2).unwrap();
        let back = store.load("alpha").unwrap();
        assert_eq!(back.name, "alpha");
        assert_eq!(back.options.k, 3);
        assert_eq!(back.options.rule, DistanceRule::Center);
        assert_eq!(back.options.n_classes, Some(2));
        assert_eq!(back.options.backend, GranulationBackend::KdTree);
        assert_eq!(back.model.balls.len(), model.balls.len());
        assert_eq!(back.model.iterations, model.iterations);
        for (a, b) in back.model.balls.iter().zip(&model.balls) {
            assert_eq!(a.center, b.center, "centers must roundtrip bit-exactly");
            assert_eq!(a.radius.to_bits(), b.radius.to_bits());
            assert_eq!(a.label, b.label);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_overwrites_atomically_and_scan_lists_latest() {
        let dir = tempdir("overwrite");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        store.save("m", &model, &LoadOptions::default(), 2).unwrap();
        let options = LoadOptions {
            k: 5,
            ..LoadOptions::default()
        };
        store.save("m", &model, &options, 2).unwrap();
        assert_eq!(store.load("m").unwrap().options.k, 5, "latest wins");
        let report = store.scan().unwrap();
        assert_eq!(report.found.len(), 1);
        assert_eq!(report.found[0].name, "m");
        assert_eq!(report.found[0].version, 2, "two saves, head is v2");
        assert!(report.quarantined.is_empty());
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_detected_and_quarantined() {
        let dir = tempdir("bitrot");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        store
            .save("rotten", &model, &LoadOptions::default(), 2)
            .unwrap();
        let path = dir.join("rotten.v1.json");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = store.load("rotten").unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let report = store.scan().unwrap();
        assert!(report.found.is_empty(), "{:?}", report.found);
        assert_eq!(report.quarantined.len(), 1);
        assert!(!path.exists(), "corrupt file must be renamed aside");
        assert!(
            report.quarantined[0].exists(),
            "but preserved for inspection"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_garbage_and_name_mismatch_fail_validation() {
        let dir = tempdir("garbage");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        store
            .save("good", &model, &LoadOptions::default(), 2)
            .unwrap();
        // Truncated file.
        let good = fs::read(dir.join("good.v1.json")).unwrap();
        fs::write(dir.join("cut.json"), &good[..good.len() / 2]).unwrap();
        // Not a store file at all.
        fs::write(dir.join("junk.json"), b"{\"not\":\"a store file\"}").unwrap();
        // Valid store file whose envelope names a different tenant.
        fs::copy(dir.join("good.v1.json"), dir.join("imposter.v1.json")).unwrap();
        // Valid store file copied to the wrong slot in its own chain.
        fs::copy(dir.join("good.v1.json"), dir.join("good.v7.json")).unwrap();
        let report = store.scan().unwrap();
        let names: Vec<&str> = report.found.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["good"], "{report:?}");
        assert_eq!(report.found[0].version, 1, "forged v7 must not become head");
        assert_eq!(report.quarantined.len(), 4, "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_removes_the_file() {
        let dir = tempdir("delete");
        let store = ModelStore::open(&dir).unwrap();
        store
            .save("gone", &fixture_model(), &LoadOptions::default(), 2)
            .unwrap();
        assert!(store.delete("gone").unwrap());
        assert!(!store.delete("gone").unwrap(), "second delete is a no-op");
        assert!(store.load("gone").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite fix: DELETE must remove the tenant's *entire* on-disk
    /// footprint — every chain version, the legacy file, quarantined
    /// siblings, and temp litter — leaving the directory empty of the
    /// tenant, while an unrelated tenant with a prefix-sharing name is
    /// untouched.
    #[test]
    fn delete_removes_the_whole_chain_and_quarantined_siblings() {
        let dir = tempdir("delete_chain");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        for _ in 0..3 {
            store
                .save("gone", &model, &LoadOptions::default(), 2)
                .unwrap();
        }
        // Legacy pre-chain file, quarantined sibling, temp litter.
        fs::write(dir.join("gone.json"), b"legacy").unwrap();
        fs::write(dir.join("gone.v2.json.quarantine"), b"torn").unwrap();
        fs::write(dir.join(".gone.v9.json.tmp"), b"stray").unwrap();
        // A different tenant sharing the name as a prefix must survive.
        store
            .save("gone2", &model, &LoadOptions::default(), 2)
            .unwrap();
        assert!(store.delete("gone").unwrap());
        let survivors: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(survivors, ["gone2.v1.json"], "{survivors:?}");
        assert!(store.head_version("gone").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The chain contract end to end: saves bump the head, each version
    /// stays pinnable, parents link by payload checksum, and GC trims the
    /// oldest versions but never the head.
    #[test]
    fn version_chain_pins_links_and_gcs() {
        let dir = tempdir("chain");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        let mut checksums = Vec::new();
        for k in 1..=4usize {
            let options = LoadOptions {
                k,
                ..LoadOptions::default()
            };
            let saved = store.save_version("t", &model, &options, 2, None).unwrap();
            assert_eq!(saved.version, k as u64);
            checksums.push(saved.checksum);
        }
        assert_eq!(store.head_version("t"), Some(4));
        assert_eq!(store.load("t").unwrap().options.k, 4, "head wins");
        for v in 1..=4u64 {
            let env = store.load_version("t", v).unwrap();
            assert_eq!(env.version, v);
            assert_eq!(env.options.k as u64, v, "pinned read sees its version");
            let expected_parent = if v == 1 {
                None
            } else {
                Some(checksums[v as usize - 2])
            };
            assert_eq!(env.parent, expected_parent, "chain link at v{v}");
        }
        let removed = store.gc_versions("t", 2).unwrap();
        assert_eq!(removed, [1, 2]);
        assert!(store.load_version("t", 1).is_err());
        assert!(store.load_version("t", 3).is_ok());
        assert_eq!(store.head_version("t"), Some(4));
        // keep=0 clamps to 1: everything but the head goes, the head stays.
        assert_eq!(store.gc_versions("t", 0).unwrap(), [3]);
        assert_eq!(store.head_version("t"), Some(4));
        assert!(store.load("t").is_ok(), "head is kept");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Maintained tenants persist their backing rows bit-exactly so
    /// incremental ingest survives restarts.
    // The over-precise literal below is deliberate: it rounds to a value
    // whose shortest decimal rendering has 17 digits, stressing the
    // serializer's roundtrip fidelity.
    #[allow(clippy::excessive_precision)]
    #[test]
    fn maintained_rows_roundtrip_bit_exactly() {
        let dir = tempdir("maintained");
        let store = ModelStore::open(&dir).unwrap();
        let maintained = MaintainedTenant {
            rho: 3,
            n_features: 2,
            features: vec![
                0.125,
                -1.5,
                f64::MIN_POSITIVE,
                3.000_000_000_000_000_7,
                0.0,
                9.0,
            ],
            labels: vec![0, 1, 1],
        };
        store
            .save_version(
                "live",
                &fixture_model(),
                &LoadOptions::default(),
                2,
                Some(&maintained),
            )
            .unwrap();
        let back = store.load("live").unwrap();
        let got = back.maintained.expect("maintained block persisted");
        assert_eq!(got.rho, 3);
        assert_eq!(got.n_features, 2);
        assert_eq!(got.labels, maintained.labels);
        assert_eq!(got.features.len(), maintained.features.len());
        for (a, b) in got.features.iter().zip(&maintained.features) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "features must roundtrip bit-exactly"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pre-chain `<name>.json` files load as version-0 chain roots and a
    /// later save starts the chain above them.
    #[test]
    fn legacy_file_is_version_zero_root() {
        let dir = tempdir("legacy");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        // Forge a legacy file by writing a v1 file and renaming it would
        // trip the version==stem check, so render a true pre-chain
        // envelope through the public API of this module.
        let payload = render_envelope("old", &model, &LoadOptions::default(), 2, 0, None, None);
        let header = format!(
            "{MAGIC} fnv1a64={:016x} len={}\n",
            fnv1a64(payload.as_bytes()),
            payload.len()
        );
        fs::write(dir.join("old.json"), format!("{header}{payload}")).unwrap();
        assert_eq!(store.head_version("old"), Some(0));
        assert_eq!(store.load("old").unwrap().version, 0);
        let report = store.scan().unwrap();
        assert_eq!(report.found.len(), 1);
        assert_eq!(report.found[0].version, 0);
        let saved = store.save("old", &model, &LoadOptions::default(), 2);
        saved.unwrap();
        assert_eq!(store.head_version("old"), Some(1));
        assert_eq!(store.load("old").unwrap().version, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every injected save fault must surface as a clean error whose
    /// aftermath is recoverable: either the old version still loads, or
    /// the file is corrupt and a scan quarantines it — never a silently
    /// wrong model. Sweeping seeds exercises all fault kinds.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_save_faults_never_leave_a_silently_wrong_store() {
        let dir = tempdir("faults_save");
        let store = ModelStore::open(&dir).unwrap();
        let model = fixture_model();
        let options = LoadOptions::default();
        let mut kinds_seen = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            // Fresh valid baseline, written with the seam disarmed.
            store.set_fault_policy(None);
            store.save("victim", &model, &options, 2).unwrap();
            let baseline = store.load("victim").unwrap().model.balls.len();
            // Rate 1.0: the very next save draws a fault deterministically.
            store.set_fault_policy(Some(FaultPolicy::new(1.0, seed)));
            let outcome = store.save("victim", &model, &options, 2);
            store.set_fault_policy(None);
            match outcome {
                Ok(_) => kinds_seen.insert("latency"),
                Err(e) => {
                    assert!(e.contains("injected fault:"), "{e}");
                    let kind = if e.contains("torn write") {
                        "torn"
                    } else if e.contains("fsync failed") {
                        "fsync"
                    } else if e.contains("rename interrupted") {
                        "rename"
                    } else {
                        panic!("unknown injected fault message: {e}")
                    };
                    match store.load("victim") {
                        // Old (or equivalently re-written) version intact.
                        Ok(env) => assert_eq!(env.model.balls.len(), baseline),
                        // Torn bytes on the final path: a clean parse error
                        // and the boot scan must quarantine, not serve, it.
                        Err(load_err) => {
                            assert!(!load_err.contains("injected"), "{load_err}");
                            let report = store.scan().unwrap();
                            assert!(
                                report.quarantined.iter().any(|p| {
                                    let p = p.to_string_lossy();
                                    p.contains("victim.v") && p.ends_with(".json.quarantine")
                                }),
                                "{report:?}"
                            );
                            // Clear quarantine litter for the next round.
                            for q in &report.quarantined {
                                let _ = fs::remove_file(q);
                            }
                        }
                    }
                    kinds_seen.insert(kind)
                }
            };
        }
        assert!(
            kinds_seen.len() >= 3,
            "seed sweep should hit several distinct fault kinds, saw {kinds_seen:?}"
        );
        assert!(store.injected_faults() >= 32);
        // Disarmed store is fully operational again.
        store.save("victim", &model, &options, 2).unwrap();
        assert!(store.load("victim").is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Injected short reads must be caught by header/checksum verification
    /// as clean errors; the on-disk file stays valid throughout.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_short_reads_fail_verification_cleanly() {
        let dir = tempdir("faults_load");
        let store = ModelStore::open(&dir).unwrap();
        store
            .save("fragile", &fixture_model(), &LoadOptions::default(), 2)
            .unwrap();
        let mut failures = 0;
        for seed in 0..24u64 {
            store.set_fault_policy(Some(FaultPolicy::new(1.0, seed)));
            match store.load("fragile") {
                Ok(env) => assert_eq!(env.name, "fragile"), // latency fault
                Err(e) => {
                    failures += 1;
                    assert!(
                        e.contains("truncated?")
                            || e.contains("missing header")
                            || e.contains("checksum mismatch")
                            || e.contains("incomplete header")
                            || e.contains("bad magic"),
                        "short read must fail verification, got: {e}"
                    );
                }
            }
        }
        assert!(failures > 0, "seed sweep never produced a short read");
        store.set_fault_policy(None);
        assert!(store.load("fragile").is_ok(), "disk file was never harmed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_names_rejected() {
        let dir = tempdir("names");
        let store = ModelStore::open(&dir).unwrap();
        for bad in ["", "../etc/passwd", "a/b", ".hidden", "a b", "x\0y"] {
            assert!(
                store.load(bad).is_err(),
                "'{bad}' must be rejected before touching the filesystem"
            );
        }
        // `.v<digits>` suffixes are reserved for version files.
        assert!(!ModelStore::valid_name("ok-name_2.v1"));
        assert!(!ModelStore::valid_name("a.v007"));
        assert!(ModelStore::valid_name("ok-name_2.v1x"));
        assert!(ModelStore::valid_name("ok-name_2.version"));
        let _ = fs::remove_dir_all(&dir);
    }
}
