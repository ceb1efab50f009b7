//! Per-request spans: typed stage timers and the finished-request record.
//!
//! A request gets one [`RequestCtx`] when its first byte is parsed. The id
//! is either propagated from the client's `X-Request-Id` header or
//! generated ([`gen_request_id`]); stages accumulate µs into a plain
//! per-request array (single worker thread per request — no locks, no
//! atomics). When the response is written the context collapses into a
//! [`RequestRecord`], the unit both the [`crate::log::AccessLog`] and the
//! [`crate::ring::DebugRing`] consume.

use crate::json::JsonObj;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

/// The typed stages of a served request, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time inside the model: `GbKnn::predict_batch` for `/predict`, the
    /// GBABS run for `/sample`.
    Predict,
    /// Time resolving the model: registry lookup including any cold
    /// reload from the model store (warm hits cost nanoseconds).
    StoreIo,
    /// Time rendering and writing the response.
    Serialize,
    /// Time a router spent forwarding the request to a backend (the full
    /// hop: connect/reuse, write, wait, read — including any retries).
    Forward,
    /// Time spent in online maintenance: re-granulation,
    /// version persistence, and predictor rebuild for `/rows` appends and
    /// rollbacks.
    Ingest,
}

/// Number of stages (sizes the per-request timing array).
pub const N_STAGES: usize = 5;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Predict,
        Stage::StoreIo,
        Stage::Serialize,
        Stage::Forward,
        Stage::Ingest,
    ];

    /// Wire spelling (access-log field names append `_us`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Predict => "predict",
            Stage::StoreIo => "store_io",
            Stage::Serialize => "serialize",
            Stage::Forward => "forward",
            Stage::Ingest => "ingest",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Predict => 0,
            Stage::StoreIo => 1,
            Stage::Serialize => 2,
            Stage::Forward => 3,
            Stage::Ingest => 4,
        }
    }
}

/// SplitMix64 mixer for request-id generation.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates a process-unique request id (`r-` + 16 hex chars): a
/// per-process monotone counter mixed with boot-time entropy, so ids are
/// unique within a process and collide across restarts only by chance.
#[must_use]
pub fn gen_request_id() -> String {
    static SALT: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let salt = *SALT.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| {
                u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
            });
        mix(nanos ^ (std::process::id() as u64).rotate_left(32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("r-{:016x}", mix(salt.wrapping_add(n)))
}

/// The live observability context of one in-flight request.
///
/// Owned by the single worker thread serving the request, so all state is
/// plain mutable data — recording a span costs an `Instant` read and an
/// integer add, nothing shared.
#[derive(Debug)]
pub struct RequestCtx {
    /// Request id (client-propagated or generated). Echoed on the
    /// response and stamped into every error body.
    pub id: String,
    /// Endpoint path (e.g. `/predict`).
    pub endpoint: String,
    /// Tenant (model name) — set once the request resolves a model, so
    /// junk names in bad requests cannot inflate tenant cardinality.
    pub tenant: Option<String>,
    /// Rows processed by this request (predict rows / sample input rows).
    pub rows: u64,
    /// Machine-readable error code when the request failed.
    pub code: Option<&'static str>,
    /// When handling started.
    pub start: Instant,
    stage_us: [u64; N_STAGES],
}

impl RequestCtx {
    /// A fresh context; `start` is now.
    #[must_use]
    pub fn new(id: impl Into<String>, endpoint: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            endpoint: endpoint.into(),
            tenant: None,
            rows: 0,
            code: None,
            start: Instant::now(),
            stage_us: [0; N_STAGES],
        }
    }

    /// Accumulates `d` into `stage` (stages may be recorded repeatedly —
    /// e.g. serialize = body render + socket write).
    pub fn record(&mut self, stage: Stage, d: Duration) {
        self.record_us(stage, u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Accumulates a pre-measured µs count into `stage`.
    pub fn record_us(&mut self, stage: Stage, us: u64) {
        let slot = &mut self.stage_us[stage.index()];
        *slot = slot.saturating_add(us);
    }

    /// Times `f` and accumulates its duration into `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(stage, t0.elapsed());
        out
    }

    /// Accumulated µs for one stage.
    #[must_use]
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stage_us[stage.index()]
    }

    /// End-to-end µs so far.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Collapses the context into the immutable record the access log and
    /// debug ring consume. `deadline_remaining_ms` is the request budget
    /// left when the response went out (`None` = unbounded).
    #[must_use]
    pub fn finish(self, status: u16, deadline_remaining_ms: Option<u64>) -> RequestRecord {
        let total_us = self.elapsed_us();
        RequestRecord {
            ts_unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            id: self.id,
            tenant: self.tenant,
            endpoint: self.endpoint,
            status,
            code: self.code.map(str::to_string),
            rows: self.rows,
            total_us,
            stage_us: self.stage_us,
            deadline_remaining_ms,
        }
    }
}

/// One finished request, ready to log and rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Wall-clock completion time (ms since the Unix epoch).
    pub ts_unix_ms: u64,
    /// Request id.
    pub id: String,
    /// Tenant (model name), when one was resolved.
    pub tenant: Option<String>,
    /// Endpoint path.
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Machine-readable error code for non-200 responses.
    pub code: Option<String>,
    /// Rows processed.
    pub rows: u64,
    /// End-to-end handling latency in µs.
    pub total_us: u64,
    /// Per-stage accumulated µs, indexed like [`Stage::ALL`].
    pub stage_us: [u64; N_STAGES],
    /// Request budget remaining at completion (`None` = unbounded).
    pub deadline_remaining_ms: Option<u64>,
}

impl RequestRecord {
    /// Accumulated µs for one stage.
    #[must_use]
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stage_us[stage.index()]
    }

    /// Renders the record as one JSON object (no trailing newline) — the
    /// access-log line schema documented in `docs/SERVING.md`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut stages = JsonObj::new();
        for stage in Stage::ALL {
            stages.num_u64(&format!("{}_us", stage.as_str()), self.stage_us(stage));
        }
        let mut o = JsonObj::new();
        o.num_u64("ts_ms", self.ts_unix_ms)
            .str("id", &self.id)
            .opt_str("tenant", self.tenant.as_deref())
            .str("endpoint", &self.endpoint)
            .num_u64("status", u64::from(self.status))
            .opt_str("code", self.code.as_deref())
            .num_u64("rows", self.rows)
            .num_u64("total_us", self.total_us)
            .raw("stages", &stages.finish())
            .opt_u64("deadline_remaining_ms", self.deadline_remaining_ms);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = gen_request_id();
            assert!(id.starts_with("r-") && id.len() == 18, "{id}");
            assert!(seen.insert(id), "duplicate id");
        }
    }

    #[test]
    fn stages_accumulate_and_stay_below_total() {
        let mut ctx = RequestCtx::new("r-x", "/predict");
        ctx.record(Stage::Predict, Duration::from_micros(100));
        ctx.record(Stage::Predict, Duration::from_micros(50));
        ctx.record_us(Stage::StoreIo, 7);
        assert_eq!(ctx.stage_us(Stage::Predict), 150);
        assert_eq!(ctx.stage_us(Stage::StoreIo), 7);
        assert_eq!(ctx.stage_us(Stage::Serialize), 0);
    }

    #[test]
    fn record_renders_schema_fields() {
        let mut ctx = RequestCtx::new("r-1", "/predict");
        ctx.tenant = Some("t-0".into());
        ctx.rows = 32;
        ctx.record_us(Stage::Predict, 123);
        let rec = ctx.finish(200, Some(950));
        let line = rec.to_json();
        for needle in [
            "\"id\":\"r-1\"",
            "\"tenant\":\"t-0\"",
            "\"endpoint\":\"/predict\"",
            "\"status\":200",
            "\"code\":null",
            "\"rows\":32",
            "\"predict_us\":123",
            "\"store_io_us\":0",
            "\"deadline_remaining_ms\":950",
        ] {
            assert!(line.contains(needle), "{needle} missing in {line}");
        }
        assert!(!line.contains('\n'));
    }
}
