//! Request counters, latency histograms, per-tenant statistics, and the
//! metric families behind `GET /metrics`.
//!
//! Every family `gbabs serve` and `gbabs router` expose is declared once
//! here as a [`Family`]: its Prometheus name, type, help and labels, and
//! its place in the JSON body ([`SERVER_FAMILIES`], [`ROUTER_FAMILIES`]).
//! A process adds its samples to an `Exposition`, which renders the JSON
//! body or the Prometheus text from the same calls, so both formats carry
//! the same series.

use crate::errors::ErrorStats;
use crate::http::Response;
use crate::service::render;
use gb_obs::PromText;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of log2 latency buckets (µs): bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs, with the last bucket open-ended (≥ ~2.1 s).
pub const LATENCY_BUCKETS: usize = 22;

/// Per-endpoint request counters plus a shared latency histogram for the
/// predict path. All counters are lock-free atomics.
#[derive(Default)]
pub struct Metrics {
    /// Completed requests by endpoint.
    pub predict_requests: AtomicU64,
    /// Rows predicted (across batched requests).
    pub predict_rows: AtomicU64,
    /// `/sample` requests served.
    pub sample_requests: AtomicU64,
    /// `/model` + `/models` requests served.
    pub model_requests: AtomicU64,
    /// `/healthz` requests served.
    pub health_requests: AtomicU64,
    /// Model hot-reloads performed.
    pub reloads: AtomicU64,
    /// Tenants deleted via `DELETE /models/{name}`.
    pub deletes: AtomicU64,
    /// Accepted `/models/{name}/rows` appends (online maintenance).
    pub appends: AtomicU64,
    /// Labelled rows ingested through accepted appends.
    pub append_rows: AtomicU64,
    /// Accepted `/models/{name}/rollback` requests.
    pub rollbacks: AtomicU64,
    /// Per-[`crate::errors::ErrorCode`] counters (`errors_by_code` in
    /// `GET /metrics`); the `client_errors`, `server_errors` and `shed`
    /// totals are their sums by HTTP status.
    pub errors: ErrorStats,
    /// Log2 µs histogram of end-to-end `/predict` handling latency.
    pub predict_latency: LatencyHistogram,
}

/// A lock-free log2 histogram over microseconds.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies in µs.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Count in bucket `i` (`[2^i, 2^(i+1))` µs).
    ///
    /// # Panics
    /// Panics if `i >= LATENCY_BUCKETS`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Server-side percentile estimate (q in `[0,1]`) by upper-bound
    /// interpolation inside the target log2 bucket: the rank-selected
    /// bucket `[lo, hi)` is assumed uniform, so the estimate is
    /// `lo + (rank_within / bucket_count) · (hi − lo)`. Returns 0 with no
    /// observations. The estimate is deliberately an **upper bound**-style
    /// interpolation — it can overshoot the true percentile by at most one
    /// bucket width, never undershoot below the bucket's lower edge.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based target rank, ceil so p100 is the max-latency bucket.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for i in 0..LATENCY_BUCKETS {
            let n = self.buckets[i].load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = 1u64 << (i + 1);
                let within = (target - cumulative) as f64;
                return lo as f64 + (hi - lo) as f64 * (within / n as f64);
            }
            cumulative += n;
        }
        // Racing writers can leave `count` ahead of the bucket sums for a
        // moment; answer with the top of the last non-empty bucket.
        (1u64 << LATENCY_BUCKETS) as f64
    }

    /// JSON rendering: bucket upper bounds (µs) with counts, plus
    /// count/mean and interpolated p50/p90/p99.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let count = self.count();
        let mean_us = if count == 0 {
            0.0
        } else {
            self.total_us.load(Ordering::Relaxed) as f64 / count as f64
        };
        let buckets: Vec<Value> = (0..LATENCY_BUCKETS)
            .map(|i| {
                Value::Obj(vec![
                    ("le_us".into(), Value::Num((1u64 << (i + 1)) as f64)),
                    (
                        "count".into(),
                        Value::Num(self.buckets[i].load(Ordering::Relaxed) as f64),
                    ),
                ])
            })
            .filter(|b| matches!(b.get("count"), Some(Value::Num(n)) if *n > 0.0))
            .collect();
        Value::Obj(vec![
            ("count".into(), Value::Num(count as f64)),
            ("mean_us".into(), Value::Num(mean_us)),
            ("p50_us".into(), Value::Num(self.percentile_us(0.50))),
            ("p90_us".into(), Value::Num(self.percentile_us(0.90))),
            ("p99_us".into(), Value::Num(self.percentile_us(0.99))),
            ("buckets".into(), Value::Arr(buckets)),
        ])
    }
}

/// Per-tenant counters and predict-latency histogram. Entries are created
/// only for tenants that actually resolve a model, so junk model names in
/// bad requests cannot inflate cardinality.
#[derive(Default)]
pub struct TenantStats {
    /// Requests that touched this tenant's model.
    pub requests: AtomicU64,
    /// Rows predicted for this tenant.
    pub rows: AtomicU64,
    /// Hot reloads of this tenant's model.
    pub reloads: AtomicU64,
    /// Accepted row appends into this tenant (online maintenance).
    pub appends: AtomicU64,
    /// Labelled rows ingested into this tenant.
    pub append_rows: AtomicU64,
    /// Accepted rollbacks of this tenant's version chain.
    pub rollbacks: AtomicU64,
    /// Errors attributed to this tenant, by [`crate::errors::ErrorCode`].
    pub errors: ErrorStats,
    /// Predict-path latency for this tenant.
    pub predict_latency: LatencyHistogram,
}

/// Registry of per-tenant statistics, keyed by model name. Reads (the hot
/// path, after first touch) take the read lock; the write lock is taken
/// only on first sight of a tenant.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<TenantStats>>>,
}

impl TenantRegistry {
    /// Stats handle for `tenant`, creating the entry on first touch.
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn touch(&self, tenant: &str) -> Arc<TenantStats> {
        if let Some(t) = self.tenants.read().expect("tenant registry").get(tenant) {
            return Arc::clone(t);
        }
        let mut g = self.tenants.write().expect("tenant registry");
        Arc::clone(g.entry(tenant.to_string()).or_default())
    }

    /// Stats handle for `tenant` only if it already exists (error paths
    /// must not mint tenants).
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn get(&self, tenant: &str) -> Option<Arc<TenantStats>> {
        self.tenants
            .read()
            .expect("tenant registry")
            .get(tenant)
            .map(Arc::clone)
    }

    /// Snapshot of all tenants, name-ordered.
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, Arc<TenantStats>)> {
        self.tenants
            .read()
            .expect("tenant registry")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

/// How a [`Family`] renders in Prometheus text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A gauge that is always 1 and carries its information in its labels
    /// (`*_build_info`). Its JSON place holds an object of those labels.
    Info,
    /// A [`LatencyHistogram`] as cumulative `_bucket` series, `_sum` and
    /// `_count`.
    Histogram,
    /// A [`LatencyHistogram`] as interpolated p50/p90/p99 `quantile`
    /// series, `_sum` and `_count`.
    Summary,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Info => "gauge",
            Kind::Histogram => "histogram",
            Kind::Summary => "summary",
        }
    }
}

/// One metric family, declared once for both `/metrics` formats.
#[derive(Debug)]
pub struct Family {
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// Label names, in the order a sample gives their values.
    pub labels: &'static [&'static str],
    /// Place in the JSON body: dot-separated keys, where `{label}` is an
    /// object keyed by that label's value and `key[field={label}]` is the
    /// element of array `key` whose `field` equals it. A histogram or
    /// summary places the whole [`LatencyHistogram::to_value`] object.
    pub json: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Prometheus skips zero samples, bounding a label product such as
    /// tenant × code; JSON keeps them.
    pub sparse: bool,
}

/// Declares each family row as a `pub(crate)` constant, and the list of
/// them in row order. A row reads `CONST: Kind "name" [labels] "json place"
/// "help"`, plus `sparse` for families Prometheus skips zero samples of.
macro_rules! families {
    ($(#[$doc:meta])* $list:ident {
        $($id:ident: $kind:ident $name:literal [$($label:literal),*] $json:literal $help:literal
            $($sparse:ident)?;)*
    }) => {
        $(pub(crate) const $id: Family = Family {
            name: $name,
            kind: Kind::$kind,
            labels: &[$($label),*],
            json: $json,
            help: $help,
            sparse: families!(@sparse $($sparse)?),
        };)*
        $(#[$doc])*
        pub const $list: &[&Family] = &[$(&$id),*];
    };
    (@sparse) => { false };
    (@sparse sparse) => { true };
}

families! {
    /// Every family `gbabs serve` exposes on `GET /metrics`, in output order.
    SERVER_FAMILIES {
        BUILD_INFO: Info "gb_build_info" ["version", "kernel", "kernel_contract"] "build"
            "Build version, active SIMD kernel, and kernel contract version (value is always 1)";
        UPTIME: Gauge "gb_uptime_seconds" [] "uptime_s" "Seconds since server start";
        REQUESTS: Counter "gb_requests_total" ["endpoint"] "requests.{endpoint}"
            "Completed requests by endpoint";
        PREDICT_ROWS: Counter "gb_predict_rows_total" [] "predict_rows" "Rows predicted";
        APPEND_ROWS: Counter "gb_append_rows_total" [] "append_rows"
            "Labelled rows ingested through online maintenance";
        CLIENT_ERRORS: Counter "gb_client_errors_total" [] "client_errors" "4xx responses";
        SERVER_ERRORS: Counter "gb_server_errors_total" [] "server_errors"
            "Non-shed 5xx responses";
        SHED: Counter "gb_shed_total" [] "shed" "503 responses from the admission gates";
        ERRORS: Counter "gb_errors_total" ["code"] "errors_by_code.{code}"
            "Errors by taxonomy code";
        RESIDENT_MODELS: Gauge "gb_registry_resident_models" [] "registry.resident_models"
            "Models resident in memory";
        COLD_MODELS: Gauge "gb_registry_cold_models" [] "registry.cold_models"
            "Known models not resident in memory (rebuilt from the store on first use)";
        RESIDENT_BYTES: Gauge "gb_registry_resident_bytes" [] "registry.resident_bytes"
            "Bytes of resident models";
        BUDGET_BYTES: Gauge "gb_registry_budget_bytes" [] "registry.budget_bytes"
            "Resident-memory budget in bytes (no sample, JSON null, when unbounded)";
        HITS: Counter "gb_registry_hits_total" [] "registry.hits" "Warm registry acquisitions";
        COLD_RELOADS: Counter "gb_registry_cold_reloads_total" [] "registry.cold_reloads"
            "Cold reloads from the model store";
        EVICTIONS: Counter "gb_registry_evictions_total" [] "registry.evictions" "LRU evictions";
        RELOAD_LATENCY: Histogram "gb_reload_latency_us" [] "registry.reload_latency_us"
            "Cold-reload latency (µs)";
        PREDICT_LATENCY: Histogram "gb_predict_latency_us" [] "predict_latency_us"
            "End-to-end /predict handling latency (µs)";
        TENANT_REQUESTS: Counter "gb_tenant_requests_total" ["tenant"] "tenants.{tenant}.requests"
            "Requests by tenant";
        TENANT_ROWS: Counter "gb_tenant_rows_total" ["tenant"] "tenants.{tenant}.rows"
            "Predicted rows by tenant";
        TENANT_RELOADS: Counter "gb_tenant_reloads_total" ["tenant"] "tenants.{tenant}.reloads"
            "Hot reloads by tenant";
        TENANT_APPENDS: Counter "gb_tenant_appends_total" ["tenant"] "tenants.{tenant}.appends"
            "Accepted row appends by tenant";
        TENANT_APPEND_ROWS: Counter "gb_tenant_append_rows_total" ["tenant"]
            "tenants.{tenant}.append_rows" "Ingested rows by tenant";
        TENANT_ROLLBACKS: Counter "gb_tenant_rollbacks_total" ["tenant"]
            "tenants.{tenant}.rollbacks" "Accepted rollbacks by tenant";
        TENANT_ERRORS: Counter "gb_tenant_errors_total" ["tenant", "code"]
            "tenants.{tenant}.errors_by_code.{code}" "Errors by tenant and code" sparse;
        TENANT_PREDICT_LATENCY: Summary "gb_tenant_predict_latency_us" ["tenant"]
            "tenants.{tenant}.predict_latency_us"
            "Per-tenant predict latency quantiles (µs, histogram-interpolated)";
    }
}

families! {
    /// Every family `gbabs router` exposes on `GET /metrics`, in output order.
    ROUTER_FAMILIES {
        ROUTER_BUILD_INFO: Info "gb_router_build_info" ["role", "version"] "build"
            "Router role and build version (value is always 1)";
        ROUTER_UPTIME: Gauge "gb_router_uptime_seconds" [] "uptime_s"
            "Seconds since router start";
        ROUTER_REQUESTS: Counter "gb_router_requests_total" [] "requests"
            "Requests accepted by the router";
        ROUTER_FORWARDED: Counter "gb_router_forwarded_all_total" [] "forwarded"
            "Requests forwarded to and answered by any backend";
        ROUTER_FORWARD_ERRORS: Counter "gb_router_forward_errors_all_total" [] "forward_errors"
            "Transport-level forward failures across all backends";
        ROUTER_NO_OWNER: Counter "gb_router_no_healthy_owner_total" [] "no_healthy_owner"
            "Requests 503ed because no healthy backend owned the tenant";
        ROUTER_SHED: Counter "gb_router_shed_total" [] "shed"
            "Connections shed at the router accept gate";
        ROUTER_ERRORS: Counter "gb_router_errors_total" ["code"] "errors_by_code.{code}"
            "Router-originated errors by taxonomy code";
        ROUTER_HOP_LATENCY: Histogram "gb_router_hop_latency_us" [] "hop_latency_us"
            "Router-to-backend hop latency in microseconds";
        BACKEND_HEALTHY: Gauge "gb_router_backend_healthy" ["backend"]
            "backends[addr={backend}].healthy"
            "1 when the backend's last /readyz probe (or forward) succeeded";
        BACKEND_FORWARDED: Counter "gb_router_forwarded_total" ["backend"]
            "backends[addr={backend}].forwarded" "Requests forwarded to a backend, by backend";
        BACKEND_FORWARD_ERRORS: Counter "gb_router_forward_errors_total" ["backend"]
            "backends[addr={backend}].forward_errors"
            "Transport-level forward failures, by backend";
        BACKEND_HEALTH_FLIPS: Counter "gb_router_backend_health_flips_total" ["backend"]
            "backends[addr={backend}].health_flips" "Backend health transitions observed";
        BACKEND_HOP_LATENCY: Histogram "gb_router_backend_hop_latency_us" ["backend"]
            "backends[addr={backend}].hop_latency_us"
            "Router-to-backend hop latency by backend, in microseconds";
    }
}

/// One sample's value.
pub(crate) enum Reading<'a> {
    Num(f64),
    /// A 0/1 gauge that JSON shows as a boolean.
    Flag(bool),
    /// No sample; JSON `null`.
    Absent,
    Latency(&'a LatencyHistogram),
}

impl From<f64> for Reading<'_> {
    fn from(v: f64) -> Self {
        Reading::Num(v)
    }
}

impl From<&AtomicU64> for Reading<'_> {
    fn from(v: &AtomicU64) -> Self {
        Reading::Num(v.load(Ordering::Relaxed) as f64)
    }
}

impl From<bool> for Reading<'_> {
    fn from(v: bool) -> Self {
        Reading::Flag(v)
    }
}

impl<'a> From<&'a LatencyHistogram> for Reading<'a> {
    fn from(h: &'a LatencyHistogram) -> Self {
        Reading::Latency(h)
    }
}

/// One `GET /metrics` body under construction, in one of the two formats.
/// A process adds each family's samples together, in the order of its
/// family list; both formats come out of the same calls.
pub(crate) struct Exposition {
    families: &'static [&'static Family],
    out: Format,
}

enum Format {
    Json(Value),
    Prometheus(PromText),
}

impl Exposition {
    /// An empty body over `families`. JSON lays out every family's place up
    /// front, so key order follows the list and empty sections (no tenants
    /// yet) still appear.
    pub(crate) fn new(families: &'static [&'static Family], prometheus: bool) -> Self {
        let out = if prometheus {
            Format::Prometheus(PromText::new())
        } else {
            let mut root = Value::Obj(Vec::new());
            for family in families {
                place(&mut root, family, &[]);
            }
            Format::Json(root)
        };
        Self { families, out }
    }

    /// Adds one sample of `family`; `values` are its label values.
    pub(crate) fn add<'a>(
        &mut self,
        family: &Family,
        values: &[&str],
        reading: impl Into<Reading<'a>>,
    ) {
        debug_assert!(
            self.families.iter().any(|f| f.name == family.name),
            "{} is not in this process's family list",
            family.name
        );
        debug_assert_eq!(values.len(), family.labels.len(), "{}", family.name);
        let reading = reading.into();
        match &mut self.out {
            Format::Json(root) => {
                let value = match reading {
                    _ if family.kind == Kind::Info => Value::Obj(
                        family
                            .labels
                            .iter()
                            .zip(values)
                            .map(|(label, v)| {
                                // An integer label (a contract version) stays a JSON number.
                                let v = v.parse::<u32>().map_or_else(
                                    |_| Value::Str((*v).to_string()),
                                    |n| Value::Num(f64::from(n)),
                                );
                                ((*label).to_string(), v)
                            })
                            .collect(),
                    ),
                    Reading::Num(n) => Value::Num(n),
                    Reading::Flag(b) => Value::Bool(b),
                    Reading::Absent => Value::Null,
                    Reading::Latency(h) => h.to_value(),
                };
                if let Some(slot) = place(root, family, values) {
                    *slot = value;
                }
            }
            Format::Prometheus(p) => {
                let labels: Vec<(&str, &str)> = family
                    .labels
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect();
                p.metric(family.name, family.kind.as_str(), family.help);
                match reading {
                    Reading::Num(v) if !(family.sparse && v == 0.0) => {
                        p.sample(family.name, &labels, v);
                    }
                    Reading::Flag(b) => {
                        p.sample(family.name, &labels, f64::from(u8::from(b)));
                    }
                    Reading::Latency(h) => latency(p, family, &labels, h),
                    Reading::Num(_) | Reading::Absent => {}
                }
            }
        }
    }

    /// The finished `200` response.
    pub(crate) fn finish(self) -> Response {
        match self.out {
            Format::Json(root) => Response::json(200, render(&root)),
            Format::Prometheus(p) => Response::text(200, p.finish(), "text/plain; version=0.0.4"),
        }
    }
}

/// Prometheus series of one latency family: cumulative log2-µs buckets
/// (histogram) or interpolated quantiles (summary), then `_sum`, `_count`.
fn latency(p: &mut PromText, family: &Family, labels: &[(&str, &str)], h: &LatencyHistogram) {
    fn series<'l>(
        labels: &[(&'l str, &'l str)],
        key: &'l str,
        value: &'l str,
    ) -> Vec<(&'l str, &'l str)> {
        let mut series = labels.to_vec();
        series.push((key, value));
        series
    }
    let name = family.name;
    if family.kind == Kind::Histogram {
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for i in 0..LATENCY_BUCKETS {
            cumulative += h.bucket(i);
            let le = (1u64 << (i + 1)).to_string();
            p.sample(&bucket, &series(labels, "le", &le), cumulative as f64);
        }
        p.sample(&bucket, &series(labels, "le", "+Inf"), h.count() as f64);
    } else {
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            p.sample(name, &series(labels, "quantile", label), h.percentile_us(q));
        }
    }
    p.sample(&format!("{name}_sum"), labels, h.total_us() as f64);
    p.sample(&format!("{name}_count"), labels, h.count() as f64);
}

/// Walks `family`'s JSON place from `root`, creating what is missing, and
/// returns the slot it names. A label step takes its key from `values`;
/// with no values the walk stops there, having laid out the container.
fn place<'v>(root: &'v mut Value, family: &Family, values: &[&str]) -> Option<&'v mut Value> {
    let label = |name: &str| {
        let i = family.labels.iter().position(|l| *l == name)?;
        values.get(i).copied()
    };
    let mut node = root;
    for step in family.json.split('.') {
        node = if let Some(name) = step.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
            let fields = object(node);
            field(fields, label(name)?)
        } else if let Some((key, item)) = step.split_once('[') {
            let (id_field, name) = item.strip_suffix("}]")?.split_once("={")?;
            let items = array(field(object(node), key));
            let id = Value::Str(label(name)?.to_string());
            let i = match items.iter().position(|v| v.get(id_field) == Some(&id)) {
                Some(i) => i,
                None => {
                    items.push(Value::Obj(vec![(id_field.to_string(), id)]));
                    items.len() - 1
                }
            };
            &mut items[i]
        } else {
            field(object(node), step)
        };
    }
    Some(node)
}

fn object(node: &mut Value) -> &mut Vec<(String, Value)> {
    if !matches!(node, Value::Obj(_)) {
        *node = Value::Obj(Vec::new());
    }
    match node {
        Value::Obj(fields) => fields,
        _ => unreachable!("just made an object"),
    }
}

fn array(node: &mut Value) -> &mut Vec<Value> {
    if !matches!(node, Value::Arr(_)) {
        *node = Value::Arr(Vec::new());
    }
    match node {
        Value::Arr(items) => items,
        _ => unreachable!("just made an array"),
    }
}

fn field<'v>(fields: &'v mut Vec<(String, Value)>, key: &str) -> &'v mut Value {
    let i = match fields.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            fields.push((key.to_string(), Value::Null));
            fields.len() - 1
        }
    };
    &mut fields[i].1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(3)); // bucket 1: [2,4)
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(1000)); // bucket 9: [512,1024)
        assert_eq!(h.count(), 3);
        let v = h.to_value();
        let Some(Value::Arr(buckets)) = v.get("buckets") else {
            panic!("buckets missing: {v:?}");
        };
        assert_eq!(buckets.len(), 2, "{buckets:?}");
        assert_eq!(buckets[0].get("le_us"), Some(&Value::Num(4.0)));
        assert_eq!(buckets[0].get("count"), Some(&Value::Num(2.0)));
        assert_eq!(buckets[1].get("le_us"), Some(&Value::Num(1024.0)));
    }

    #[test]
    fn zero_latency_lands_in_first_bucket() {
        let h = LatencyHistogram::default();
        h.observe(Duration::ZERO);
        assert_eq!(h.count(), 1);
    }
}
