//! End-to-end observability tests: request-id echo on success, error,
//! and shed paths; access-log / `/debug/requests` correlation with stage
//! breakdowns; Prometheus exposition shape; build info on health
//! endpoints.

use gb_dataset::catalog::DatasetId;
use gb_dataset::Dataset;
use gb_serve::registry::LoadOptions;
use gb_serve::{HttpClient, ModelRegistry, ServeConfig, Server, SERVER_VERSION};
use gbabs::{rd_gbg, RdGbgConfig};
use serde::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> (Dataset, gbabs::RdGbgModel) {
    let data = DatasetId::S5.generate(0.05, 1);
    let model = rd_gbg(&data, &RdGbgConfig::default());
    (data, model)
}

fn boot(config: ServeConfig) -> (gb_serve::ServerHandle, Dataset) {
    let (data, model) = fixture();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .publish("default", &model, &LoadOptions::default())
        .expect("load model");
    let handle = Server::bind(config, registry)
        .expect("bind")
        .start()
        .expect("start");
    (handle, data)
}

fn client(handle: &gb_serve::ServerHandle) -> HttpClient {
    HttpClient::connect(handle.addr(), Duration::from_secs(20)).expect("connect")
}

fn rows_json(data: &Dataset, rows: &[usize]) -> String {
    let mut body = String::from("{\"rows\":[");
    for (i, &r) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (d, v) in data.row(r).iter().enumerate() {
            if d > 0 {
                body.push(',');
            }
            let _ = write!(body, "{v}");
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

fn parse_json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// A tiny two-class CSV for `/sample`, JSON-escaped into a request body.
fn sample_body(id_field: bool) -> String {
    let mut csv = String::from("f0,f1,label\n");
    for i in 0..60 {
        let x = f64::from(i) * 0.1;
        let cls = if i % 2 == 0 { "a" } else { "b" };
        let _ = writeln!(csv, "{x:.2},{:.2},{cls}", x * 0.5 + f64::from(i % 2));
    }
    let mut fields = vec![
        ("csv".to_string(), Value::Str(csv)),
        ("rho".to_string(), Value::Num(3.0)),
        ("seed".to_string(), Value::Num(7.0)),
    ];
    if !id_field {
        fields.pop();
    }
    serde_json::to_string(&Value::Obj(fields)).expect("render body")
}

#[test]
fn request_id_is_echoed_on_success_and_errors() {
    let (handle, data) = boot(ServeConfig::default());
    let mut c = client(&handle);

    // Success path: the client's id comes back in the header and body.
    let headers = [("X-Request-Id", "test-id-001".to_string())];
    let resp = c
        .send("POST", "/predict", Some(&rows_json(&data, &[0])), &headers)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.request_id.as_deref(), Some("test-id-001"));
    let v = parse_json(&resp.body);
    assert_eq!(
        v.get("request_id"),
        Some(&Value::Str("test-id-001".into())),
        "{}",
        resp.body
    );

    // Error path: a 400 still echoes the id in header and body.
    let headers = [("X-Request-Id", "test-id-err".to_string())];
    let resp = c
        .send("POST", "/predict", Some("{\"rows\":\"nope\"}"), &headers)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.request_id.as_deref(), Some("test-id-err"));
    let v = parse_json(&resp.body);
    assert_eq!(v.get("request_id"), Some(&Value::Str("test-id-err".into())));

    // No client id: the server generates one and still echoes it.
    let resp = c
        .send("POST", "/predict", Some(&rows_json(&data, &[1])), &[])
        .unwrap();
    assert_eq!(resp.status, 200);
    let generated = resp.request_id.expect("server-generated id");
    assert!(!generated.is_empty());
    handle.stop();
}

#[test]
fn shed_503_echoes_client_request_id() {
    let (handle, data) = boot(ServeConfig {
        workers: 1,
        backlog: 1,
        ..ServeConfig::default()
    });

    // A occupies the single worker; B fills the single backlog slot.
    let mut a = client(&handle);
    let resp = a
        .send("POST", "/predict", Some(&rows_json(&data, &[0])), &[])
        .unwrap();
    assert_eq!(resp.status, 200);
    let _b = client(&handle);

    // C is over capacity: shed with 503, but the shed path peeks the
    // request head, so the id still round-trips.
    let mut c = client(&handle);
    let headers = [("X-Request-Id", "shed-id-42".to_string())];
    let resp = c.send("GET", "/healthz", None, &headers).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.request_id.as_deref(), Some("shed-id-42"));
    let v = parse_json(&resp.body);
    assert_eq!(v.get("request_id"), Some(&Value::Str("shed-id-42".into())));
    assert_eq!(v.get("code"), Some(&Value::Str("overloaded".into())));
    handle.stop();
}

#[test]
fn slow_request_findable_by_id_in_access_log_and_debug_ring() {
    let log_path =
        std::env::temp_dir().join(format!("gb_serve_obs_access_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (handle, data) = boot(ServeConfig {
        access_log: Some(log_path.to_str().expect("utf-8 path").to_string()),
        ..ServeConfig::default()
    });
    let mut c = client(&handle);

    // Warm traffic so the slow request has competition in the ring.
    for _ in 0..5 {
        let resp = c
            .send("POST", "/predict", Some(&rows_json(&data, &[0])), &[])
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    // The seeded slow request: /sample granulates a whole CSV, which
    // dwarfs a single-row predict.
    let headers = [("X-Request-Id", "slow-probe-1".to_string())];
    let resp = c
        .send("POST", "/sample", Some(&sample_body(true)), &headers)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse_json(&resp.body);
    let Some(Value::Arr(progress)) = v.get("progress") else {
        panic!("no progress array in {}", resp.body);
    };
    assert!(
        !progress.is_empty(),
        "sample response must carry granulation progress events"
    );
    let last = progress.last().unwrap();
    assert_eq!(
        last.get("phase"),
        Some(&Value::Str("borderline".into())),
        "final event is the borderline summary: {last:?}"
    );

    // Findable in /debug/requests with a stage breakdown.
    let resp = c.send("GET", "/debug/requests", None, &[]).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = parse_json(&resp.body);
    let Some(Value::Arr(slowest)) = v.get("slowest") else {
        panic!("no slowest in {}", resp.body);
    };
    let probe = slowest
        .iter()
        .find(|r| r.get("id") == Some(&Value::Str("slow-probe-1".into())))
        .unwrap_or_else(|| panic!("slow-probe-1 not in ring: {}", resp.body));
    let Some(stages) = probe.get("stages") else {
        panic!("no stages in {probe:?}");
    };
    match stages.get("predict_us") {
        Some(Value::Num(us)) => assert!(*us > 0.0, "granulation must be timed: {probe:?}"),
        other => panic!("no predict_us stage: {other:?}"),
    }

    // stop() joins workers and flushes the access log.
    handle.stop();
    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let mut found = false;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable access-log line ({e}): {line}"));
        if v.get("id") == Some(&Value::Str("slow-probe-1".into())) {
            found = true;
            assert_eq!(v.get("endpoint"), Some(&Value::Str("/sample".into())));
            assert_eq!(v.get("status"), Some(&Value::Num(200.0)));
            let stages = v.get("stages").expect("stages object");
            match stages.get("predict_us") {
                Some(Value::Num(us)) => assert!(*us > 0.0, "{line}"),
                other => panic!("no predict_us in log line: {other:?}"),
            }
        }
    }
    assert!(found, "slow-probe-1 missing from access log:\n{text}");
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let (handle, data) = boot(ServeConfig::default());
    let mut c = client(&handle);
    // Generate some traffic, including an error, so counters are non-zero.
    for _ in 0..3 {
        let resp = c
            .send("POST", "/predict", Some(&rows_json(&data, &[0])), &[])
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = c.send("POST", "/predict", Some("{broken"), &[]).unwrap();
    assert_eq!(resp.status, 400);

    let resp = c
        .send("GET", "/metrics?format=prometheus", None, &[])
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = &resp.body;
    let mut seen_series = std::collections::HashSet::new();
    let mut typed = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().expect("type name");
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // sample line: name{labels} value  |  name value
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable value in: {line}"
        );
        assert!(
            seen_series.insert(series.to_string()),
            "duplicate series: {series}"
        );
        let name = series.split(['{', ' ']).next().expect("metric name");
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            typed.contains(name) || typed.contains(family),
            "sample {name} has no # TYPE declaration"
        );
    }
    for family in [
        "gb_build_info",
        "gb_uptime_seconds",
        "gb_requests_total",
        "gb_errors_total",
        "gb_predict_latency_us",
        "gb_tenant_requests_total",
    ] {
        assert!(text.contains(family), "missing family {family} in:\n{text}");
    }
    handle.stop();
}

#[test]
fn health_endpoints_carry_build_info_and_uptime() {
    let (handle, _) = boot(ServeConfig::default());
    let mut c = client(&handle);
    for path in ["/healthz", "/readyz"] {
        let resp = c.send("GET", path, None, &[]).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
        let v = parse_json(&resp.body);
        assert_eq!(
            v.get("version"),
            Some(&Value::Str(SERVER_VERSION.into())),
            "{path}: {}",
            resp.body
        );
        match v.get("kernel") {
            Some(Value::Str(k)) => assert!(!k.is_empty(), "{path}"),
            other => panic!("{path}: no kernel: {other:?}"),
        }
        match v.get("uptime_s") {
            Some(Value::Num(s)) => assert!(*s >= 0.0, "{path}"),
            other => panic!("{path}: no uptime_s: {other:?}"),
        }
    }
    handle.stop();
}

#[test]
fn per_tenant_metrics_appear_after_traffic() {
    let (handle, data) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let resp = c
        .send("POST", "/predict", Some(&rows_json(&data, &[0, 1])), &[])
        .unwrap();
    assert_eq!(resp.status, 200);
    // An unknown model must NOT mint a tenant entry.
    let resp = c
        .send(
            "POST",
            "/predict",
            Some("{\"model\":\"ghost\",\"rows\":[[0.0]]}"),
            &[],
        )
        .unwrap();
    assert_eq!(resp.status, 404);

    let resp = c.send("GET", "/metrics", None, &[]).unwrap();
    assert_eq!(resp.status, 200);
    let v = parse_json(&resp.body);
    let Some(tenants) = v.get("tenants") else {
        panic!("no tenants in {}", resp.body);
    };
    let default = tenants.get("default").expect("default tenant tracked");
    match default.get("requests") {
        Some(Value::Num(n)) => assert!(*n >= 1.0),
        other => panic!("no per-tenant requests: {other:?}"),
    }
    match default.get("rows") {
        Some(Value::Num(n)) => assert!(*n >= 2.0),
        other => panic!("no per-tenant rows: {other:?}"),
    }
    assert!(
        tenants.get("ghost").is_none(),
        "junk model names must not inflate tenant cardinality: {}",
        resp.body
    );
    handle.stop();
}
