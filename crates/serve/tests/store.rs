//! End-to-end tests of the persistent model store + budgeted registry:
//! real servers on ephemeral ports over a real `--model-dir` — restart
//! equality, LRU eviction under a tiny budget, concurrent cold-reload
//! storms, and corrupt-file quarantine at boot.

use gb_dataset::catalog::DatasetId;
use gb_dataset::Dataset;
use gb_serve::registry::LoadOptions;
use gb_serve::{HttpClient, ModelRegistry, ModelStore, ServeConfig, Server, ServerHandle};
use gbabs::{rd_gbg, RdGbgConfig, RdGbgModel};
use serde::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gb_serve_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(seed: u64) -> (Dataset, RdGbgModel) {
    let data = DatasetId::S5.generate(0.05, seed);
    let model = rd_gbg(&data, &RdGbgConfig::default());
    (data, model)
}

/// Boots a server whose registry is backed by `dir` (scanning it), with an
/// optional resident byte budget.
fn boot_with_store(dir: &Path, budget: Option<u64>) -> ServerHandle {
    let store = ModelStore::open(dir).expect("open store");
    let (registry, _scan) = ModelRegistry::with_store(store, budget).expect("scan store");
    Server::bind(ServeConfig::default(), Arc::new(registry))
        .expect("bind")
        .start()
        .expect("start")
}

fn client(handle: &ServerHandle) -> HttpClient {
    HttpClient::connect(handle.addr(), Duration::from_secs(20)).expect("connect")
}

fn rows_json(data: &Dataset, model: &str, rows: &[usize]) -> String {
    let mut body = format!("{{\"model\":\"{model}\",\"rows\":[");
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

/// The raw response text from `"predictions":` onward — comparing these
/// suffixes compares the prediction payload **byte for byte** while
/// ignoring the version field (which legitimately differs across
/// restarts).
fn predictions_suffix(body: &str) -> &str {
    body.split("\"predictions\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no predictions in {body}"))
}

fn publish(c: &mut HttpClient, name: &str, model_json: &str, k: usize, rule: &str) -> String {
    let body = format!("{{\"model\":{model_json},\"k\":{k},\"rule\":\"{rule}\"}}");
    let (status, resp) = c
        .request("POST", &format!("/models/{name}"), Some(&body))
        .expect("publish");
    assert_eq!(status, 200, "{resp}");
    resp
}

/// Parses `GET /models` into (name → (state, bytes)) plus the counters.
fn models_index(c: &mut HttpClient) -> (Vec<(String, String, f64)>, Value) {
    let (status, body) = c.request("GET", "/models", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let Some(Value::Arr(models)) = v.get("models") else {
        panic!("no models array in {body}");
    };
    let rows = models
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad name {other:?}"),
            };
            let state = match m.get("state") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad state {other:?}"),
            };
            let bytes = match m.get("bytes") {
                Some(Value::Num(n)) => *n,
                other => panic!("bad bytes {other:?}"),
            };
            (name, state, bytes)
        })
        .collect();
    (rows, v)
}

fn registry_counter(c: &mut HttpClient, key: &str) -> f64 {
    let (status, body) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let Some(registry) = v.get("registry") else {
        panic!("no registry section in {body}");
    };
    match registry.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("no registry.{key} ({other:?}) in {body}"),
    }
}

#[test]
fn restart_serves_byte_identical_predictions_for_every_tenant() {
    let dir = tempdir("restart");
    let (data, model) = fixture(11);
    let model_json = serde_json::to_string(&model).unwrap();
    let rows: Vec<usize> = (0..data.n_samples()).step_by(3).collect();

    // First life: publish two tenants with different predictor options.
    let before_a;
    let before_b;
    {
        let handle = boot_with_store(&dir, None);
        let mut c = client(&handle);
        publish(&mut c, "tenant-a", &model_json, 1, "surface");
        publish(&mut c, "tenant-b", &model_json, 3, "center");
        let (status, body) = c
            .request(
                "POST",
                "/predict",
                Some(&rows_json(&data, "tenant-a", &rows)),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        before_a = body;
        let (status, body) = c
            .request(
                "POST",
                "/predict",
                Some(&rows_json(&data, "tenant-b", &rows)),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        before_b = body;
        // k=3/center must actually differ in configuration, or the test
        // could not catch options being lost across the restart.
        handle.stop();
    }

    // Second life: same directory, fresh process state.
    let handle = boot_with_store(&dir, None);
    let mut c = client(&handle);
    let (entries, _) = models_index(&mut c);
    assert_eq!(entries.len(), 2, "{entries:?}");
    assert!(
        entries.iter().all(|(_, state, _)| state == "cold"),
        "nothing is resident before first use: {entries:?}"
    );
    let (status, after_a) = c
        .request(
            "POST",
            "/predict",
            Some(&rows_json(&data, "tenant-a", &rows)),
        )
        .unwrap();
    assert_eq!(status, 200, "{after_a}");
    let (status, after_b) = c
        .request(
            "POST",
            "/predict",
            Some(&rows_json(&data, "tenant-b", &rows)),
        )
        .unwrap();
    assert_eq!(status, 200, "{after_b}");
    assert_eq!(
        predictions_suffix(&before_a),
        predictions_suffix(&after_a),
        "tenant-a predictions must be byte-identical across the restart"
    );
    assert_eq!(
        predictions_suffix(&before_b),
        predictions_suffix(&after_b),
        "tenant-b (k=3, center rule) predictions must be byte-identical"
    );
    assert_ne!(
        predictions_suffix(&after_a),
        predictions_suffix(&after_b),
        "the two option sets must disagree somewhere on noisy data, or \
         option persistence is untested"
    );
    // /model on a reloaded tenant reports the persisted k.
    let (status, body) = c.request("GET", "/model?name=tenant-b", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v.get("k"), Some(&Value::Num(3.0)), "{body}");
    assert_eq!(registry_counter(&mut c, "cold_reloads"), 2.0);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retained versions and the head of `name`, from
/// `GET /models/{name}`.
fn versions(c: &mut HttpClient, name: &str) -> (Vec<u64>, u64) {
    let (status, body) = c.request("GET", &format!("/models/{name}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let (Some(Value::Arr(versions)), Some(Value::Num(head))) = (v.get("versions"), v.get("head"))
    else {
        panic!("no versions/head in {body}");
    };
    let versions = versions
        .iter()
        .map(|v| match v {
            Value::Num(n) => *n as u64,
            other => panic!("bad version {other:?}"),
        })
        .collect();
    (versions, *head as u64)
}

#[test]
fn rollback_rejects_unknown_body_keys() {
    let dir = tempdir("rollback_keys");
    let handle = boot_with_store(&dir, None);
    let mut c = client(&handle);
    for seed in [1, 2] {
        let model_json = serde_json::to_string(&fixture(seed).1).unwrap();
        publish(&mut c, "tenant", &model_json, 1, "surface");
    }
    let (retained, head) = versions(&mut c, "tenant");
    let first = retained[0];
    assert!(head > first, "{retained:?} head {head}");
    // A rollback takes only a version: an unsupported option and a
    // misspelt one are errors, and nothing is rolled back.
    for (extra, key) in [
        ("\"metric\":\"cosine\"", "metric"),
        ("\"verison\":1", "verison"),
    ] {
        let body = format!("{{\"version\":{first},{extra}}}");
        let (status, reply) = c
            .request("POST", "/models/tenant/rollback", Some(&body))
            .unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains(&format!("'{key}'")), "{reply}");
    }
    assert_eq!(versions(&mut c, "tenant"), (retained, head));
    let (status, reply) = c
        .request(
            "POST",
            "/models/tenant/rollback",
            Some(&format!("{{\"version\":{first}}}")),
        )
        .unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(
        reply.contains(&format!("\"rolled_back_to\":{first}")),
        "{reply}"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resident-byte estimate of `model`, measured through a throwaway
/// registry (the estimator itself is internal to gb-serve).
fn resident_bytes_of(model: &RdGbgModel) -> u64 {
    let dir = tempdir("sizing");
    let store = ModelStore::open(&dir).unwrap();
    let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
    reg.publish("probe", model, &LoadOptions::default())
        .unwrap();
    let bytes = reg.snapshot().resident_bytes;
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn tiny_budget_evicts_lru_and_cold_predict_reloads_correctly() {
    let dir = tempdir("evict");
    let (data, model) = fixture(12);
    let model_json = serde_json::to_string(&model).unwrap();
    let one = resident_bytes_of(&model);
    let rows: Vec<usize> = (0..40).collect();

    // Budget fits one resident model, not two.
    let handle = boot_with_store(&dir, Some(one + one / 2));
    let mut c = client(&handle);
    publish(&mut c, "a", &model_json, 1, "surface");
    let (status, expected) = c
        .request("POST", "/predict", Some(&rows_json(&data, "a", &rows)))
        .unwrap();
    assert_eq!(status, 200, "{expected}");

    // Publishing b pushes the total over budget: a (LRU) goes cold.
    publish(&mut c, "b", &model_json, 1, "surface");
    let (entries, _) = models_index(&mut c);
    let state_of = |name: &str, entries: &[(String, String, f64)]| {
        entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, s, _)| s.clone())
            .unwrap_or_else(|| panic!("{name} missing from {entries:?}"))
    };
    assert_eq!(state_of("a", &entries), "cold", "{entries:?}");
    assert_eq!(state_of("b", &entries), "resident", "{entries:?}");
    assert_eq!(registry_counter(&mut c, "evictions"), 1.0);

    // Predicting against the cold tenant transparently reloads it — and
    // the answers are the ones the resident model gave.
    let (status, reloaded) = c
        .request("POST", "/predict", Some(&rows_json(&data, "a", &rows)))
        .unwrap();
    assert_eq!(status, 200, "{reloaded}");
    assert_eq!(
        predictions_suffix(&expected),
        predictions_suffix(&reloaded),
        "a cold reload must serve byte-identical predictions"
    );
    // The reload in turn evicted b (the budget still fits only one).
    let (entries, totals) = models_index(&mut c);
    assert_eq!(state_of("a", &entries), "resident", "{entries:?}");
    assert_eq!(state_of("b", &entries), "cold", "{entries:?}");
    assert_eq!(registry_counter(&mut c, "evictions"), 2.0);
    assert_eq!(registry_counter(&mut c, "cold_reloads"), 1.0);
    match totals.get("resident_bytes") {
        Some(Value::Num(n)) => assert!(*n <= (one + one / 2) as f64, "{totals:?}"),
        other => panic!("no resident_bytes total ({other:?})"),
    }
    // Reload latency surfaced in /metrics.
    let (status, body) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let lat = v
        .get("registry")
        .and_then(|r| r.get("reload_latency_us"))
        .and_then(|l| l.get("count"));
    assert_eq!(lat, Some(&Value::Num(1.0)), "{body}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_predicts_against_a_cold_tenant_trigger_one_disk_load() {
    let dir = tempdir("storm");
    let (data, model) = fixture(13);
    // Persist the tenant, then boot fresh so it starts cold.
    {
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        reg.publish("stormy", &model, &LoadOptions::default())
            .unwrap();
    }
    let handle = boot_with_store(&dir, None);
    let offline = gbabs::GbKnn::from_model(&model, data.n_classes(), 1);
    let expected = offline.predict(&data);

    std::thread::scope(|s| {
        for t in 0..8 {
            let handle = &handle;
            let data = &data;
            let expected = &expected;
            s.spawn(move || {
                let mut c = client(handle);
                let rows: Vec<usize> = (t * 5..t * 5 + 20).collect();
                let (status, body) = c
                    .request("POST", "/predict", Some(&rows_json(data, "stormy", &rows)))
                    .expect("predict under reload storm");
                assert_eq!(status, 200, "{body}");
                let v: Value = serde_json::from_str(&body).unwrap();
                let Some(Value::Arr(preds)) = v.get("predictions") else {
                    panic!("no predictions in {body}");
                };
                for (i, &r) in rows.iter().enumerate() {
                    assert_eq!(preds[i], Value::Num(f64::from(expected[r])), "row {r}");
                }
            });
        }
    });

    let mut c = client(&handle);
    assert_eq!(
        registry_counter(&mut c, "cold_reloads"),
        1.0,
        "the single-flight guard must coalesce the storm onto one load"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_files_are_quarantined_at_boot_and_serving_continues() {
    let dir = tempdir("corrupt");
    let (data, model) = fixture(14);
    {
        let store = ModelStore::open(&dir).unwrap();
        let (reg, _) = ModelRegistry::with_store(store, None).unwrap();
        reg.publish("healthy", &model, &LoadOptions::default())
            .unwrap();
        reg.publish("rotten", &model, &LoadOptions::default())
            .unwrap();
    }
    // Bit rot in one tenant + a file that was never a store file.
    let rotten = dir.join("rotten.v1.json");
    let mut bytes = std::fs::read(&rotten).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&rotten, &bytes).unwrap();
    std::fs::write(dir.join("garbage.json"), b"hello, I am not a model").unwrap();

    let handle = boot_with_store(&dir, None);
    let mut c = client(&handle);
    // Boot survived; the healthy tenant serves (via cold reload).
    let (status, body) = c
        .request(
            "POST",
            "/predict",
            Some(&rows_json(&data, "healthy", &[0, 1, 2])),
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    // The corrupt tenants are out of the catalog...
    let (entries, _) = models_index(&mut c);
    let names: Vec<&str> = entries.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names, ["healthy"], "{entries:?}");
    let (status, _) = c
        .request("POST", "/predict", Some(&rows_json(&data, "rotten", &[0])))
        .unwrap();
    assert_eq!(status, 404, "quarantined tenant must not resolve");
    // ...and preserved on disk for inspection, not deleted.
    assert!(!rotten.exists());
    assert!(dir.join("rotten.v1.json.quarantine").exists());
    assert!(dir.join("garbage.json.quarantine").exists());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_endpoint_removes_tenant_and_store_file() {
    let dir = tempdir("delete");
    let (data, model) = fixture(15);
    let model_json = serde_json::to_string(&model).unwrap();
    let handle = boot_with_store(&dir, None);
    let mut c = client(&handle);
    publish(&mut c, "doomed", &model_json, 1, "surface");
    assert!(dir.join("doomed.v1.json").exists());

    let (status, body) = c.request("DELETE", "/models/doomed", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("doomed"), "{body}");
    assert!(
        !dir.join("doomed.v1.json").exists(),
        "store file must go too"
    );
    let (status, _) = c
        .request("POST", "/predict", Some(&rows_json(&data, "doomed", &[0])))
        .unwrap();
    assert_eq!(status, 404, "deleted tenant must not predict");
    let (status, _) = c.request("DELETE", "/models/doomed", None).unwrap();
    assert_eq!(status, 404, "second delete finds nothing");
    let (status, body) = c.request("DELETE", "/models/..", None).unwrap();
    assert_eq!(
        status, 404,
        "a name the store rejects can never exist: 404, not 500 ({body})"
    );
    let (entries, _) = models_index(&mut c);
    assert!(entries.is_empty(), "{entries:?}");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
