//! Resilience integration tests: deadline enforcement against stalling
//! clients, the structured error taxonomy on the wire (Retry-After +
//! `retryable` on sheds, 504 on expired deadlines), and the liveness vs
//! readiness split.

use gb_dataset::catalog::DatasetId;
use gb_dataset::Dataset;
use gb_serve::registry::LoadOptions;
use gb_serve::{HttpClient, ModelRegistry, ModelStore, ServeConfig, Server, ServerHandle};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture() -> (Dataset, gbabs::RdGbgModel) {
    let data = DatasetId::S5.generate(0.05, 1);
    let model = gbabs::rd_gbg(&data, &gbabs::RdGbgConfig::default());
    (data, model)
}

fn boot(config: ServeConfig) -> (ServerHandle, Dataset) {
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

fn client(handle: &ServerHandle) -> HttpClient {
    HttpClient::connect(handle.addr(), Duration::from_secs(20)).expect("connect")
}

fn row_body(data: &Dataset) -> String {
    use std::fmt::Write as _;
    let mut body = String::from("{\"rows\":[[");
    for (d, v) in data.row(0).iter().enumerate() {
        if d > 0 {
            body.push(',');
        }
        let _ = write!(body, "{v}");
    }
    body.push_str("]]}");
    body
}

/// A client that sends headers promising a body and then stalls must be
/// cut off with 408 once the request deadline expires — while concurrent
/// well-behaved clients keep getting served at full speed.
#[test]
fn stalling_client_gets_408_while_others_are_served() {
    let (handle, _data) = boot(ServeConfig {
        request_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });

    let addr = handle.addr();
    let staller = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 100\r\n\r\n")
            .expect("headers");
        // ... and never send the promised 100 body bytes.
        let t0 = Instant::now();
        let mut response = Vec::new();
        let _ = s.read_to_end(&mut response);
        (
            t0.elapsed(),
            String::from_utf8_lossy(&response).into_owned(),
        )
    });

    // Meanwhile the server must stay fully responsive for everyone else.
    let mut c = client(&handle);
    let mut worst = Duration::ZERO;
    for _ in 0..20 {
        let t0 = Instant::now();
        let (status, _) = c.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(1),
        "healthy clients stalled behind the slow-loris: worst {worst:?}"
    );

    let (elapsed, response) = staller.join().expect("staller thread");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "stalled request must be cut off with 408, got: {response}"
    );
    assert!(response.contains("request_timeout"), "{response}");
    assert!(response.contains("\"retryable\":true"), "{response}");
    assert!(
        elapsed >= Duration::from_millis(400) && elapsed < Duration::from_secs(3),
        "408 must arrive near the 500ms deadline, took {elapsed:?}"
    );
    handle.stop();
}

/// Backlog sheds are advertised as retryable: 503 with a `Retry-After`
/// header and a machine-readable taxonomy body.
#[test]
fn shed_503_carries_retry_after_and_retryable_body() {
    let (handle, _data) = boot(ServeConfig {
        workers: 1,
        backlog: 1,
        ..ServeConfig::default()
    });
    // A parks the only worker; B fills the single backlog slot; C must be
    // shed at the admission gate (same determinism argument as the
    // original shed test in tests/server.rs).
    let mut a = client(&handle);
    let (status, _) = a.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let _b = client(&handle);
    let mut c = client(&handle);
    let resp = c.send("GET", "/healthz", None, &[]).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(
        resp.retry_after,
        Some(Duration::from_secs(1)),
        "shed must carry Retry-After"
    );
    assert!(
        resp.body.contains("\"code\":\"overloaded\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"retryable\":true"), "{}", resp.body);
    assert!(
        resp.body.contains("\"retry_after_ms\":1000"),
        "{}",
        resp.body
    );
    handle.stop();
}

/// `X-Deadline-Ms: 0` expires before any work happens: the server must
/// drop the request with 504 instead of wasting a predictor slot.
#[test]
fn expired_client_deadline_is_dropped_with_504() {
    let (handle, data) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let resp = c
        .send(
            "POST",
            "/predict",
            Some(&row_body(&data)),
            &[("X-Deadline-Ms", "0".into())],
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(
        resp.body.contains("\"code\":\"deadline_exceeded\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"retryable\":true"), "{}", resp.body);

    // A generous client deadline changes nothing.
    let resp = c
        .send(
            "POST",
            "/predict",
            Some(&row_body(&data)),
            &[("X-Deadline-Ms", "30000".into())],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // And a malformed one is a 400, not a silent default.
    let resp = c
        .send(
            "POST",
            "/predict",
            Some(&row_body(&data)),
            &[("X-Deadline-Ms", "soon".into())],
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    handle.stop();
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gb_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `/readyz` reflects the boot scan: ready, not draining, and reporting
/// how many store files were quarantined on the way up.
#[test]
fn readyz_reports_boot_scan_outcome() {
    let dir = tempdir("readyz");
    std::fs::write(
        dir.join("rotten.json"),
        b"GBSTORE1 this is not a store file\n{}",
    )
    .unwrap();
    let store = ModelStore::open(&dir).unwrap();
    let (registry, scan) = ModelRegistry::with_store(store, None).unwrap();
    assert_eq!(scan.quarantined.len(), 1, "{scan:?}");
    let (_data, model) = fixture();
    registry
        .publish("default", &model, &LoadOptions::default())
        .unwrap();
    let handle = Server::bind(ServeConfig::default(), Arc::new(registry))
        .unwrap()
        .start()
        .unwrap();
    let mut c = client(&handle);
    let (status, body) = c.request("GET", "/readyz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"draining\":false"), "{body}");
    assert!(body.contains("\"boot_quarantined\":1"), "{body}");
    assert!(body.contains("\"models\":1"), "{body}");

    // Liveness stays a separate, unconditional signal.
    let (status, _) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
