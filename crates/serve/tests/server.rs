//! End-to-end tests of the serving subsystem: a real server on an
//! ephemeral port, driven by real sockets — concurrent clients, hot
//! reload under load, malformed input, admission-gate shedding, and
//! bit-exact agreement with the offline predictor.

use gb_dataset::catalog::DatasetId;
use gb_dataset::Dataset;
use gb_serve::registry::LoadOptions;
use gb_serve::{HttpClient, ModelRegistry, ServeConfig, Server};
use gbabs::{rd_gbg, GbKnn, RdGbgConfig, Sampler};
use serde::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> (Dataset, gbabs::RdGbgModel) {
    let data = DatasetId::S5.generate(0.05, 1);
    let model = rd_gbg(&data, &RdGbgConfig::default());
    (data, model)
}

fn boot(config: ServeConfig) -> (gb_serve::ServerHandle, Dataset, GbKnn) {
    let (data, model) = fixture();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .publish("default", &model, &LoadOptions::default())
        .expect("load model");
    let offline = GbKnn::from_model(&model, data.n_classes(), 1);
    let handle = Server::bind(config, registry)
        .expect("bind")
        .start()
        .expect("start");
    (handle, data, offline)
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

fn predictions_of(body: &str) -> Vec<u32> {
    let v: Value = serde_json::from_str(body).expect("response JSON");
    let Some(Value::Arr(preds)) = v.get("predictions") else {
        panic!("no predictions in {body}");
    };
    preds
        .iter()
        .map(|p| match p {
            Value::Num(n) => *n as u32,
            other => panic!("non-numeric prediction {other:?}"),
        })
        .collect()
}

fn version_of(body: &str) -> u64 {
    let v: Value = serde_json::from_str(body).expect("response JSON");
    match v.get("version") {
        Some(Value::Num(n)) => *n as u64,
        _ => panic!("no version in {body}"),
    }
}

#[test]
fn predict_single_and_batch_match_offline_exactly() {
    let (handle, data, offline) = boot(ServeConfig::default());
    let expected = offline.predict(&data);
    let mut c = client(&handle);

    // single row
    let (status, body) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0])))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(predictions_of(&body), vec![expected[0]]);

    // a batch
    let rows: Vec<usize> = (0..data.n_samples()).collect();
    let (status, body) = c
        .request("POST", "/predict", Some(&rows_json(&data, &rows)))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(predictions_of(&body), expected, "server must match offline");

    // "row" spelling
    let mut single = String::from("{\"row\":[");
    for (d, v) in data.row(7).iter().enumerate() {
        if d > 0 {
            single.push(',');
        }
        let _ = write!(single, "{v}");
    }
    single.push_str("]}");
    let (status, body) = c.request("POST", "/predict", Some(&single)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(predictions_of(&body), vec![expected[7]]);

    handle.stop();
}

#[test]
fn concurrent_clients_with_hot_reload_mid_traffic() {
    let (handle, data, offline) = boot(ServeConfig::default());
    let expected = offline.predict(&data);
    let n = data.n_samples();

    std::thread::scope(|s| {
        // Traffic: 6 clients hammering /predict with disjoint-ish slices.
        for t in 0..6 {
            let handle = &handle;
            let data = &data;
            let expected = &expected;
            s.spawn(move || {
                let mut c = client(handle);
                for round in 0..30 {
                    let lo = (t * 7 + round) % n;
                    let hi = (lo + 11).min(n);
                    let rows: Vec<usize> = (lo..hi).collect();
                    let (status, body) = c
                        .request("POST", "/predict", Some(&rows_json(data, &rows)))
                        .expect("predict under reload");
                    assert_eq!(status, 200, "{body}");
                    // The reload swaps in the *same* cover, so every
                    // response — old or new version — must match offline.
                    let preds = predictions_of(&body);
                    for (i, &r) in rows.iter().enumerate() {
                        assert_eq!(preds[i], expected[r], "row {r} (round {round})");
                    }
                }
            });
        }
        // Reloader: repeatedly hot-swap the same model under load.
        let handle = &handle;
        s.spawn(move || {
            let (_, model) = fixture();
            let model_json = serde_json::to_string(&model).unwrap();
            let mut c = client(handle);
            for _ in 0..10 {
                let body = format!("{{\"model\":{model_json},\"k\":1}}");
                let (status, resp) = c
                    .request("POST", "/models/default", Some(&body))
                    .expect("reload");
                assert_eq!(status, 200, "{resp}");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    });

    // After the dust settles the active version reflects the reloads.
    let mut c = client(&handle);
    let (status, body) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0])))
        .unwrap();
    assert_eq!(status, 200);
    assert!(version_of(&body) > 10, "reloads must bump the version");
    handle.stop();
}

#[test]
fn malformed_and_mismatched_requests_get_4xx() {
    let (handle, data, _) = boot(ServeConfig::default());
    let mut c = client(&handle);

    let (status, body) = c.request("POST", "/predict", Some("{not json")).unwrap();
    assert_eq!(status, 400, "{body}");

    let (status, _) = c.request("POST", "/predict", Some("{}")).unwrap();
    assert_eq!(status, 400);

    let (status, _) = c
        .request("POST", "/predict", Some("{\"rows\":[[1.0]]}"))
        .unwrap();
    assert_eq!(status, 400, "wrong dimensionality");

    let (status, _) = c
        .request(
            "POST",
            "/predict",
            Some("{\"model\":\"nope\",\"rows\":[[1.0,2.0]]}"),
        )
        .unwrap();
    assert_eq!(status, 404, "unknown model");

    let (status, _) = c.request("GET", "/nowhere", None).unwrap();
    assert_eq!(status, 404);

    let (status, _) = c.request("DELETE", "/predict", None).unwrap();
    assert_eq!(status, 405);

    // Metrics saw the client errors.
    let (status, body) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let Some(Value::Num(errors)) = v.get("client_errors") else {
        panic!("no client_errors in {body}");
    };
    assert!(*errors >= 3.0, "{body}");
    drop(data);
    handle.stop();
}

#[test]
fn oversized_bodies_get_a_json_413_not_a_reset() {
    // 2 KiB body cap; /sample and /models uploads well past it. The
    // server must drain the in-flight body before erroring, so the client
    // reliably reads a JSON error object instead of hitting a connection
    // reset while still writing.
    let (handle, _, _) = boot(ServeConfig {
        max_body_bytes: 2048,
        ..ServeConfig::default()
    });
    let huge_csv = format!(
        "{{\"csv\":\"f0,label\\n{}\"}}",
        "1.0,0\\n2.0,1\\n".repeat(4000)
    );
    let mut c = client(&handle);
    let (status, body) = c.request("POST", "/sample", Some(&huge_csv)).unwrap();
    assert_eq!(status, 413, "{body}");
    let v: Value = serde_json::from_str(&body).expect("413 body must be JSON");
    assert!(
        matches!(v.get("error"), Some(Value::Str(m)) if m.contains("exceeds limit")),
        "{body}"
    );

    // Same contract on the model-upload path (fresh connection — a 4xx
    // protocol error closes the previous one).
    let huge_model = format!("{{\"model\":{{\"balls\":[{}]}}}}", "0,".repeat(4000));
    let mut c = client(&handle);
    let (status, body) = c.request("POST", "/models/big", Some(&huge_model)).unwrap();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"error\""), "{body}");

    // The server is still healthy afterwards.
    let mut c = client(&handle);
    let (status, _) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.stop();
}

#[test]
fn over_capacity_connection_is_shed_with_503() {
    let (handle, data, _) = boot(ServeConfig {
        workers: 1,
        backlog: 1,
        ..ServeConfig::default()
    });

    // A: occupies the single worker (keep-alive holds it).
    let mut a = client(&handle);
    let (status, _) = a
        .request("POST", "/predict", Some(&rows_json(&data, &[0])))
        .unwrap();
    assert_eq!(status, 200);

    // B: fills the single backlog slot (never served while A is open).
    let b = client(&handle);

    // C: over capacity — the admission gate must shed with 503. The single
    // accept thread processes connects in order (B's enqueue happens before
    // C's gate check) and the only worker is parked on A's open socket, so
    // this is deterministic.
    let mut c = client(&handle);
    let (status, body) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "expected shed, got {body}");

    // Releasing A and B lets the worker drain the queue: new connections
    // are served again (poll — the worker notices closed sockets on its
    // idle-poll tick, and a retry may still hit the gate meanwhile).
    drop(a);
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut fresh = client(&handle);
        match fresh.request("GET", "/healthz", None) {
            Ok((200, _)) => break,
            Ok((503, _)) | Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok((status, body)) => panic!("unexpected recovery response {status}: {body}"),
            Err(e) => panic!("server did not recover in time: {e}"),
        }
    }
    handle.stop();
}

#[test]
fn ingest_rejects_unknown_body_keys() {
    let (handle, _, _) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let batch = "\"rows\":[[0.0,0.0],[0.1,0.0],[5.0,5.0],[5.1,5.0]],\"labels\":[0,0,1,1]";
    // An option the endpoint does not support, and a misspelt one: both
    // must fail loudly instead of creating a tenant without them.
    for (extra, key) in [
        ("\"metric\":\"cosine\"", "metric"),
        ("\"n_class\":2", "n_class"),
    ] {
        let body = format!("{{{batch},{extra}}}");
        let (status, reply) = c
            .request("POST", "/models/fresh/rows", Some(&body))
            .unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains(&format!("'{key}'")), "{reply}");
    }
    // The rejected batches committed nothing: the tenant is created by
    // the first valid one.
    let body = format!("{{{batch},\"n_classes\":2,\"rho\":2,\"k\":1,\"rule\":\"surface\"}}");
    let (status, reply) = c
        .request("POST", "/models/fresh/rows", Some(&body))
        .unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"created\":true"), "{reply}");
    handle.stop();
}

#[test]
fn rows_acks_carry_exactly_the_documented_fields() {
    let (handle, _, _) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let ack = |c: &mut HttpClient, body: &str| {
        let (status, reply) = c.request("POST", "/models/acked/rows", Some(body)).unwrap();
        assert_eq!(status, 200, "{reply}");
        let v: Value = serde_json::from_str(&reply).expect("ack JSON");
        let Value::Obj(fields) = &v else {
            panic!("ack is not an object: {reply}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "model",
                "created",
                "appended",
                "n_rows",
                "version",
                "store_version",
                "n_balls",
                "request_id"
            ],
            "{reply}"
        );
        v
    };
    let created = ack(
        &mut c,
        "{\"rows\":[[0.0,0.0],[0.1,0.0],[5.0,5.0],[5.1,5.0]],\"labels\":[0,0,1,1],\"rho\":2}",
    );
    assert_eq!(created.get("model"), Some(&Value::Str("acked".into())));
    assert_eq!(created.get("created"), Some(&Value::Bool(true)));
    assert_eq!(created.get("appended"), Some(&Value::Num(4.0)));
    assert_eq!(created.get("n_rows"), Some(&Value::Num(4.0)));
    let appended = ack(&mut c, "{\"rows\":[[0.2,0.1],[5.2,5.1]],\"labels\":[0,1]}");
    assert_eq!(appended.get("created"), Some(&Value::Bool(false)));
    assert_eq!(appended.get("appended"), Some(&Value::Num(2.0)));
    assert_eq!(appended.get("n_rows"), Some(&Value::Num(6.0)));
    handle.stop();
}

#[test]
fn reload_rejects_unknown_body_keys() {
    let (handle, data, offline) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let (_, model) = fixture();
    let model_json = serde_json::to_string(&model).unwrap();
    // A hot reload takes only model, k and rule: an unsupported option and
    // a misspelt one are errors, not silently ignored.
    for (extra, key) in [
        ("\"metric\":\"cosine\"", "metric"),
        ("\"ruel\":\"center\"", "ruel"),
    ] {
        let body = format!("{{\"model\":{model_json},\"k\":1,{extra}}}");
        let (status, reply) = c.request("POST", "/models/default", Some(&body)).unwrap();
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains(&format!("'{key}'")), "{reply}");
    }
    // Nothing was published: version 1 still serves.
    let (status, reply) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0])))
        .unwrap();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(version_of(&reply), 1);
    assert_eq!(predictions_of(&reply), offline.predict(&data)[..1].to_vec());
    let body = format!("{{\"model\":{model_json},\"k\":1,\"rule\":\"surface\"}}");
    let (status, reply) = c.request("POST", "/models/default", Some(&body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(version_of(&reply), 2);
    handle.stop();
}

#[test]
fn body_numbers_must_be_exact_integers_in_range() {
    let (handle, _, _) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let (_, model) = fixture();
    let model_json = serde_json::to_string(&model).unwrap();
    let csv = "\"csv\":\"f0,label\\n1.0,0\\n2.0,1\\n\"";
    let batch = "\"rows\":[[0.0,0.0],[5.0,5.0]],\"labels\":[0,1]";
    // Each value was cast or ignored before: a fraction truncated, a
    // negative seed saturated to 0, a huge one to u64::MAX.
    for (path, body, key) in [
        ("/sample", format!("{{{csv},\"rho\":2.5}}"), "rho"),
        ("/sample", format!("{{{csv},\"seed\":-1}}"), "seed"),
        ("/sample", format!("{{{csv},\"seed\":1e30}}"), "seed"),
        (
            "/sample",
            format!("{{{csv},\"metric\":\"cosine\"}}"),
            "metric",
        ),
        (
            "/models/default",
            format!("{{\"model\":{model_json},\"k\":2.5}}"),
            "k",
        ),
        ("/models/fresh/rows", format!("{{{batch},\"k\":2.5}}"), "k"),
        (
            "/models/fresh/rows",
            format!("{{{batch},\"rho\":2.5}}"),
            "rho",
        ),
        (
            "/models/fresh/rows",
            format!("{{{batch},\"n_classes\":1e30}}"),
            "n_classes",
        ),
        (
            "/models/default/rollback",
            "{\"version\":0.5}".into(),
            "version",
        ),
    ] {
        let (status, reply) = c.request("POST", path, Some(&body)).unwrap();
        assert_eq!(status, 400, "{path} {body}: {reply}");
        assert!(
            reply.contains(&format!("'{key}'")),
            "{path} {body}: {reply}"
        );
    }
    // Integers at the edge of the range are taken as they are.
    let body = format!("{{{csv},\"rho\":2,\"seed\":9007199254740992}}");
    let (status, reply) = c.request("POST", "/sample", Some(&body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    handle.stop();
}

#[test]
fn class_count_is_bounded_on_rows_and_reload() {
    // GB-kNN allocates a vote counter per class for every predicted row,
    // so a tenant voting over too many classes would abort the whole
    // process on its first /predict: it must be refused at creation.
    let (handle, data, offline) = boot(ServeConfig::default());
    let mut c = client(&handle);
    let max = gb_serve::MAX_CLASSES;
    let predict = |c: &mut HttpClient, model: &str, row: &str| {
        let body = format!("{{\"model\":\"{model}\",\"row\":{row}}}");
        let (status, reply) = c.request("POST", "/predict", Some(&body)).unwrap();
        assert_eq!(status, 200, "{model}: {reply}");
        predictions_of(&reply)
    };
    let batch = |label: usize| {
        format!(
            "\"rows\":[[0.0,0.0],[0.1,0.0],[5.0,5.0],[5.1,5.0]],\"labels\":[0,0,{label},{label}]"
        )
    };
    let reload = |label: u64| {
        format!(
            "{{\"model\":{{\"balls\":[\
             {{\"center\":[0.0,0.0],\"radius\":1.0,\"label\":0,\"members\":[0],\
             \"center_row\":null,\"purity\":1.0}},\
             {{\"center\":[5.0,5.0],\"radius\":1.0,\"label\":{label},\"members\":[1],\
             \"center_row\":null,\"purity\":1.0}}],\
             \"noise\":[],\"orphan_count\":0,\"iterations\":1}}}}"
        )
    };

    // At the bound: `n_classes` on /rows, a label on /rows and a label in
    // a reloaded model each create a tenant that predicts.
    for (path, body) in [
        (
            "/models/n-at/rows",
            format!("{{{},\"n_classes\":{max}}}", batch(1)),
        ),
        ("/models/label-at/rows", format!("{{{}}}", batch(max - 1))),
        ("/models/reload-at", reload(max as u64 - 1)),
    ] {
        let (status, reply) = c.request("POST", path, Some(&body)).unwrap();
        assert_eq!(status, 200, "{path}: {reply}");
    }
    assert_eq!(predict(&mut c, "n-at", "[0.05,0.0]"), vec![0]);
    assert_eq!(predict(&mut c, "n-at", "[5.05,5.0]"), vec![1]);
    let top = max as u32 - 1;
    assert_eq!(predict(&mut c, "label-at", "[5.05,5.0]"), vec![top]);
    assert_eq!(predict(&mut c, "reload-at", "[5.0,5.0]"), vec![top]);

    // One above it, and the values that aborted the process: 400s that
    // create nothing. `/rows` refuses `n_classes` by name before the sweep.
    for (path, body, needle) in [
        (
            "/models/n-above/rows",
            format!("{{{},\"n_classes\":{}}}", batch(1), max + 1),
            "'n_classes'",
        ),
        (
            "/models/n-above/rows",
            format!("{{{},\"n_classes\":9007199254740992}}", batch(1)),
            "'n_classes'",
        ),
        (
            "/models/label-above/rows",
            format!("{{{}}}", batch(max)),
            "65537 classes",
        ),
        ("/models/reload-above", reload(max as u64), "65537 classes"),
        (
            "/models/reload-above",
            reload(u64::from(u32::MAX)),
            "4294967296 classes",
        ),
    ] {
        let (status, reply) = c.request("POST", path, Some(&body)).unwrap();
        assert_eq!(status, 400, "{path}: {reply}");
        assert!(reply.contains(needle), "{path}: {reply}");
    }
    for name in ["n-above", "label-above", "reload-above"] {
        let body = format!("{{\"model\":\"{name}\",\"row\":[0.0,0.0]}}");
        let (status, reply) = c.request("POST", "/predict", Some(&body)).unwrap();
        assert_eq!(status, 404, "{name}: {reply}");
    }

    // The server kept serving, the boot model bit-identically.
    let (status, reply) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0, 1, 2])))
        .unwrap();
    assert_eq!(status, 200, "{reply}");
    assert_eq!(predictions_of(&reply), offline.predict(&data)[..3].to_vec());
    assert_eq!(predict(&mut c, "label-at", "[0.05,0.0]"), vec![0]);
    handle.stop();
}

#[test]
fn poisoned_reload_is_rejected_and_serving_continues() {
    let (handle, data, offline) = boot(ServeConfig::default());
    let mut c = client(&handle);

    // Non-finite geometry must be refused at load time (400), never
    // swapped in where it would poison the predict path.
    let poisoned = "{\"model\":{\"balls\":[{\"center\":[1e999,0.0],\"radius\":1e999,\
                    \"label\":0,\"members\":[0],\"center_row\":null,\"purity\":1.0}],\
                    \"noise\":[],\"orphan_count\":0,\"iterations\":1}}";
    let (status, body) = c
        .request("POST", "/models/default", Some(poisoned))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("non-finite") || body.contains("invalid radius"),
        "{body}"
    );

    // The original model is still serving, bit-identically.
    let (status, body) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0, 1, 2])))
        .unwrap();
    assert_eq!(status, 200);
    let expected = offline.predict(&data);
    assert_eq!(predictions_of(&body), expected[..3].to_vec());
    assert_eq!(
        version_of(&body),
        1,
        "poisoned reload must not bump version"
    );
    handle.stop();
}

#[test]
fn sample_endpoint_matches_offline_gbabs() {
    let (handle, _, _) = boot(ServeConfig::default());
    let upload = DatasetId::S2.generate(0.1, 9);
    let csv = gb_dataset::io::write_csv_str(&upload);
    let offline = gbabs::GbabsSampler {
        density_tolerance: 5,
        backend: gb_dataset::index::GranulationBackend::Auto,
        metric: gbabs::Metric::SqEuclidean,
    }
    .sample(&upload, 7);
    let expected: Vec<usize> = offline.kept_rows.expect("undersampler");

    let mut c = client(&handle);
    let body = serde_json::to_string(&Value::Obj(vec![
        ("csv".into(), Value::Str(csv)),
        ("rho".into(), Value::Num(5.0)),
        ("seed".into(), Value::Num(7.0)),
    ]))
    .unwrap();
    let (status, resp) = c.request("POST", "/sample", Some(&body)).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v: Value = serde_json::from_str(&resp).unwrap();
    let Some(Value::Arr(kept)) = v.get("kept_rows") else {
        panic!("no kept_rows in {resp}");
    };
    let got: Vec<usize> = kept
        .iter()
        .map(|k| match k {
            Value::Num(n) => *n as usize,
            other => panic!("bad row {other:?}"),
        })
        .collect();
    assert_eq!(got, expected, "served sampling must match offline GBABS");

    // Degenerate uploads are clean 400s, not panics.
    let one_class = "{\"csv\":\"f0,label\\n1.0,0\\n2.0,0\\n\"}";
    let (status, resp) = c.request("POST", "/sample", Some(one_class)).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("single class"), "{resp}");

    let bad_rho = "{\"csv\":\"f0,label\\n1.0,0\\n2.0,1\\n\",\"rho\":1}";
    let (status, resp) = c.request("POST", "/sample", Some(bad_rho)).unwrap();
    assert_eq!(status, 400, "{resp}");
    handle.stop();
}

#[test]
fn non_finite_sample_csv_is_a_400_and_the_worker_lives() {
    // One worker: a request that took its thread down would leave nothing
    // to serve the `/predict` that follows.
    let (handle, data, offline) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut c = client(&handle);
    for text in ["nan", "inf", "1e400"] {
        let body = format!("{{\"csv\":\"f0,label\\n1.0,0\\n{text},1\\n2.0,1\\n\"}}");
        let (status, resp) = c.request("POST", "/sample", Some(&body)).unwrap();
        assert_eq!(status, 400, "{text}: {resp}");
        assert!(resp.contains("bad_request"), "{text}: {resp}");
        assert!(resp.contains("line 3, column 0"), "{text}: {resp}");
    }
    let (status, body) = c
        .request("POST", "/predict", Some(&rows_json(&data, &[0, 1])))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(predictions_of(&body), offline.predict(&data)[..2].to_vec());
    handle.stop();
}

#[test]
fn health_model_and_models_endpoints_report() {
    let (handle, data, offline) = boot(ServeConfig::default());
    let mut c = client(&handle);

    let (status, body) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = c.request("GET", "/models", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("default"), "{body}");

    let (status, body) = c.request("GET", "/model?name=default", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("n_balls"),
        Some(&Value::Num(offline.n_balls() as f64)),
        "{body}"
    );
    assert_eq!(
        v.get("n_features"),
        Some(&Value::Num(data.n_features() as f64))
    );

    let (status, _) = c.request("GET", "/model?name=ghost", None).unwrap();
    assert_eq!(status, 404);
    handle.stop();
}
