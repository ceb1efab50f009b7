//! End-to-end tests of the sharded serving tier: real `gb-serve`
//! backends on ephemeral ports behind a real [`Router`], driven over
//! real sockets — replicated publishes, ring-ownership routing, the
//! no-healthy-owner 503 contract, a backend killed mid-traffic with zero
//! client-visible errors, and a property test of the consistent-hash
//! ring's remap bounds.

use gb_dataset::catalog::DatasetId;
use gb_dataset::Dataset;
use gb_serve::registry::LoadOptions;
use gb_serve::{
    HashRing, HttpClient, ModelRegistry, RetryPolicy, RetryingClient, Router, RouterConfig,
    ServeConfig, Server, ServerHandle,
};
use gbabs::{rd_gbg, GbKnn, RdGbgConfig};
use proptest::prelude::*;
use serde::Value;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> (Dataset, gbabs::RdGbgModel) {
    let data = DatasetId::S5.generate(0.05, 1);
    let model = rd_gbg(&data, &RdGbgConfig::default());
    (data, model)
}

/// Boots one backend shard. `tenants` are preloaded straight into its
/// registry (bypassing HTTP) so tests can model a replicated cluster
/// without publishing first.
fn boot_backend(model: &gbabs::RdGbgModel, tenants: &[&str]) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    for name in tenants {
        registry
            .publish(name, model, &LoadOptions::default())
            .expect("load model");
    }
    Server::bind(ServeConfig::default(), registry)
        .expect("bind backend")
        .start()
        .expect("start backend")
}

/// Boots a router over the given backends with a fast health poll, runs
/// one synchronous health pass, and returns the running handle.
fn boot_router(backends: &[&ServerHandle]) -> gb_serve::RouterHandle {
    let config = RouterConfig {
        backends: backends.iter().map(|h| h.addr().to_string()).collect(),
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let router = Router::bind(config).expect("bind router");
    router.warm_up();
    router.start().expect("start router")
}

fn rows_json_named(data: &Dataset, model: &str, rows: &[usize]) -> String {
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

#[test]
fn publish_replicates_to_every_shard_and_routing_follows_the_ring() {
    let (data, model) = fixture();
    let offline = GbKnn::from_model(&model, data.n_classes(), 1);
    let expected = offline.predict(&data);
    let a = boot_backend(&model, &[]);
    let b = boot_backend(&model, &[]);
    let router = boot_router(&[&a, &b]);

    // Publish four tenants through the router; each must land on BOTH
    // shards (replicated publish) and report replicas = 2.
    let model_json = serde_json::to_string(&model).unwrap();
    let publish_body = format!("{{\"model\":{model_json},\"k\":1}}");
    let mut via_router = HttpClient::connect(router.addr(), Duration::from_secs(20)).unwrap();
    let tenants: Vec<String> = (0..4).map(|i| format!("tenant-{i}")).collect();
    for name in &tenants {
        let (status, body) = via_router
            .request("POST", &format!("/models/{name}"), Some(&publish_body))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("replicas"), Some(&Value::Num(2.0)), "{body}");
    }
    for backend in [&a, &b] {
        let mut direct = HttpClient::connect(backend.addr(), Duration::from_secs(20)).unwrap();
        for name in &tenants {
            let (status, body) = direct
                .request("GET", &format!("/model?name={name}"), None)
                .unwrap();
            assert_eq!(status, 200, "{name} missing on {}: {body}", backend.addr());
        }
    }

    // Predictions through the router are bit-exact with the offline
    // predictor, whichever shard owns the tenant.
    let rows: Vec<usize> = (0..data.n_samples()).collect();
    for name in &tenants {
        let (status, body) = via_router
            .request(
                "POST",
                "/predict",
                Some(&rows_json_named(&data, name, &rows)),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(predictions_of(&body), expected, "tenant {name}");
    }

    // `/cluster?tenant=` reports the same owner the ring computes.
    let ring = HashRing::build(&[a.addr().to_string(), b.addr().to_string()], 64);
    for name in &tenants {
        let (status, body) = via_router
            .request("GET", &format!("/cluster?tenant={name}"), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let Some(tenant) = v.get("tenant") else {
            panic!("no tenant block in {body}");
        };
        let Some(Value::Str(owner)) = tenant.get("owner") else {
            panic!("no owner in {body}");
        };
        let want = match ring.owner(name).unwrap() {
            0 => a.addr().to_string(),
            _ => b.addr().to_string(),
        };
        assert_eq!(owner, &want, "tenant {name}");
    }

    router.stop();
    a.stop();
    b.stop();
}

#[test]
fn request_id_propagates_through_the_hop() {
    let (_data, model) = fixture();
    let backend = boot_backend(&model, &["default"]);
    let router = boot_router(&[&backend]);

    let mut c = RetryingClient::new(
        router.addr().to_string(),
        Duration::from_secs(20),
        RetryPolicy::default(),
        7,
    );
    let id = "cluster-test-rid-42";
    let resp = c
        .send(
            "GET",
            "/model?name=default",
            None,
            &[("X-Request-Id", id.to_string())],
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The router echoes the id back to the client…
    assert_eq!(resp.request_id.as_deref(), Some(id));
    // …and the backend saw the same id (it shows up in the backend's own
    // slow-request ring).
    let mut direct = HttpClient::connect(backend.addr(), Duration::from_secs(20)).unwrap();
    let (status, body) = direct.request("GET", "/debug/requests", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains(id),
        "backend debug ring should record the propagated id: {body}"
    );

    router.stop();
    backend.stop();
}

#[test]
fn router_shed_503_echoes_client_request_id_and_logs_its_path() {
    let (_, model) = fixture();
    let backend = boot_backend(&model, &["default"]);
    let router = Router::bind(RouterConfig {
        backends: vec![backend.addr().to_string()],
        workers: 1,
        backlog: 1,
        ..RouterConfig::default()
    })
    .expect("bind router");
    router.warm_up();
    let handle = router.start().expect("start router");
    let connect = || HttpClient::connect(handle.addr(), Duration::from_secs(20)).unwrap();

    // A occupies the single worker; B fills the single backlog slot.
    let mut a = connect();
    assert_eq!(a.send("GET", "/healthz", None, &[]).unwrap().status, 200);
    let _b = connect();

    // C is over capacity: shed with a 503 that still carries its id.
    let mut c = connect();
    let headers = [("X-Request-Id", "router-shed-7".to_string())];
    let resp = c.send("GET", "/cluster", None, &headers).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.request_id.as_deref(), Some("router-shed-7"));
    let v: Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        v.get("request_id"),
        Some(&Value::Str("router-shed-7".into()))
    );
    assert_eq!(v.get("code"), Some(&Value::Str("overloaded".into())));

    // The shed lands in the router's ring under its id and real path.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let ring = a.send("GET", "/debug/requests", None, &[]).unwrap();
        let v: Value = serde_json::from_str(&ring.body).unwrap();
        let Some(Value::Arr(errored)) = v.get("errored") else {
            panic!("no errored list in {}", ring.body);
        };
        let shed = errored
            .iter()
            .find(|r| r.get("id") == Some(&Value::Str("router-shed-7".into())));
        if let Some(shed) = shed {
            assert_eq!(shed.get("endpoint"), Some(&Value::Str("/cluster".into())));
            assert_eq!(shed.get("status"), Some(&Value::Num(503.0)));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{}", ring.body);
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(c);
    drop(a);
    handle.stop();
    backend.stop();
}

#[test]
fn publish_with_a_down_replica_is_a_retryable_store_io_503() {
    let (_data, model) = fixture();
    let a = boot_backend(&model, &[]);
    let b = boot_backend(&model, &[]);
    let router = boot_router(&[&a, &b]);
    b.stop();
    // Let the 50ms health poll mark the dead shard down, so the publish
    // exercises the skipped-replica path (a transport failure on the hop
    // yields the same 503 either way).
    std::thread::sleep(Duration::from_millis(300));

    // A publish that cannot reach the full configured replica set must
    // NOT report success: the down shard would rejoin the ring without
    // this model and failover to it would 404.
    let model_json = serde_json::to_string(&model).unwrap();
    let publish_body = format!("{{\"model\":{model_json},\"k\":1}}");
    let mut c = HttpClient::connect(router.addr(), Duration::from_secs(20)).unwrap();
    let (status, body) = c
        .request("POST", "/models/degraded", Some(&publish_body))
        .unwrap();
    assert_eq!(status, 503, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("code"),
        Some(&Value::Str("store_io".into())),
        "{body}"
    );
    assert_eq!(v.get("retryable"), Some(&Value::Bool(true)), "{body}");

    // The 503 is about completeness, not rollback: the surviving shard
    // accepted the model, and an idempotent re-publish converges the
    // replica set once the dead shard returns.
    let mut direct = HttpClient::connect(a.addr(), Duration::from_secs(20)).unwrap();
    let (status, body) = direct.request("GET", "/model?name=degraded", None).unwrap();
    assert_eq!(status, 200, "{body}");

    router.stop();
    a.stop();
}

#[test]
fn tenant_names_with_reserved_bytes_route_intact() {
    let (_data, model) = fixture();
    // A tenant whose name holds a space, an ampersand, and a percent —
    // everything that would break a naively rebuilt query string.
    let tenant = "spaced & 100% tenant";
    let backend = boot_backend(&model, &[tenant]);
    let router = boot_router(&[&backend]);

    let mut c = HttpClient::connect(router.addr(), Duration::from_secs(20)).unwrap();
    let (status, body) = c
        .request("GET", "/model?name=spaced%20%26%20100%25%20tenant", None)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(tenant), "wrong tenant served: {body}");

    router.stop();
    backend.stop();
}

#[test]
fn no_healthy_owner_is_a_retryable_503_with_retry_after() {
    let (data, model) = fixture();
    let backend = boot_backend(&model, &["default"]);
    let router = boot_router(&[&backend]);
    backend.stop();

    // The first forward attempt hits a dead socket, marks the shard down,
    // finds no successor, and sheds with the PR-6 retryable taxonomy.
    let mut c = HttpClient::connect(router.addr(), Duration::from_secs(20)).unwrap();
    let resp = c
        .send(
            "POST",
            "/predict",
            Some(&rows_json_named(&data, "default", &[0])),
            &[],
        )
        .unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.retry_after.is_some(), "503 must carry Retry-After");
    let v: Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(v.get("code"), Some(&Value::Str("overloaded".into())));
    assert_eq!(v.get("retryable"), Some(&Value::Bool(true)));

    // With zero healthy shards the router also reports itself not ready.
    let (status, body) = c.request("GET", "/readyz", None).unwrap();
    assert_eq!(status, 503, "{body}");

    router.stop();
}

#[test]
fn killing_one_backend_mid_traffic_is_invisible_to_clients() {
    let (data, model) = fixture();
    let offline = GbKnn::from_model(&model, data.n_classes(), 1);
    let expected = offline.predict(&data);
    // Every shard holds every tenant (the replicated-publish layout), so
    // failover along the ring can always serve.
    let tenants: Vec<String> = (0..8).map(|i| format!("tenant-{i}")).collect();
    let tenant_refs: Vec<&str> = tenants.iter().map(String::as_str).collect();
    let a = boot_backend(&model, &tenant_refs);
    let b = boot_backend(&model, &tenant_refs);
    let router = boot_router(&[&a, &b]);

    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    crossbeam::thread::scope(|s| {
        for t in 0..2usize {
            let (stop, total, errors) = (&stop, &total, &errors);
            let (data, expected, tenants) = (&data, &expected, &tenants);
            let addr = router.addr();
            s.spawn(move |_| {
                let mut client = RetryingClient::new(
                    addr.to_string(),
                    Duration::from_secs(20),
                    RetryPolicy {
                        max_attempts: 4,
                        ..RetryPolicy::default()
                    },
                    0x5eed ^ t as u64,
                );
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let tenant = &tenants[(t + round) % tenants.len()];
                    let row = round % data.n_samples();
                    let body = rows_json_named(data, tenant, &[row]);
                    total.fetch_add(1, Ordering::Relaxed);
                    match client.send("POST", "/predict", Some(&body), &[], Duration::from_secs(5))
                    {
                        Ok(resp) if resp.status == 200 => {
                            assert_eq!(predictions_of(&resp.body), vec![expected[row]]);
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    round += 1;
                }
            });
        }
        // Let traffic reach steady state on both shards, then SIGKILL-
        // equivalent one of them (stop() closes its listener and joins
        // its threads; in-flight hops fail at the socket).
        std::thread::sleep(Duration::from_millis(300));
        a.stop();
        std::thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
    })
    .expect("client scope");

    let total = total.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    assert!(total > 20, "expected sustained traffic, got {total}");
    assert_eq!(
        errors, 0,
        "killing one shard must be invisible: {errors}/{total} failed"
    );

    router.stop();
    b.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The consistent-hashing contract, over random cluster shapes:
    /// the ring is deterministic across rebuilds (restart safety), a
    /// failed backend moves only its own tenants (everyone else keeps
    /// their shard), a joining backend only *attracts* tenants (never
    /// shuffles two survivors), and the attracted share is ~tenants/N.
    #[test]
    fn ring_remap_is_bounded_and_deterministic(
        n in 2usize..6,
        vnodes in 32usize..129,
        tenants in 50usize..250,
        salt in 0u64..1000,
    ) {
        let backends: Vec<String> = (0..n).map(|i| format!("10.0.0.{i}:90{i:02}")).collect();
        let ring = HashRing::build(&backends, vnodes);
        let rebuilt = HashRing::build(&backends, vnodes);
        let names: Vec<String> = (0..tenants).map(|t| format!("tenant-{salt}-{t}")).collect();

        for name in &names {
            prop_assert_eq!(ring.owner(name), rebuilt.owner(name), "restart determinism");
        }

        // Failure: mark the last backend dead. Tenants it did not own
        // keep their exact shard; its own tenants fail over elsewhere.
        let removed = n - 1;
        let alive: Vec<bool> = (0..n).map(|i| i != removed).collect();
        for name in &names {
            let before = ring.owner(name).unwrap();
            let after = ring.first_alive(name, &alive).unwrap();
            if before == removed {
                prop_assert!(after != removed, "failover must skip the dead shard");
            } else {
                prop_assert_eq!(before, after, "unaffected tenants must not move");
            }
        }

        // Join: add one backend. Every remapped tenant lands on the new
        // shard, and the moved share is bounded by ~tenants/(n+1).
        let mut grown = backends.clone();
        grown.push("10.0.0.99:9099".into());
        let bigger = HashRing::build(&grown, vnodes);
        let mut moved = 0usize;
        for name in &names {
            let before = ring.owner(name).unwrap();
            let after = bigger.owner(name).unwrap();
            if before != after {
                moved += 1;
                prop_assert_eq!(after, n, "a join may only attract tenants to itself");
            }
        }
        let bound = tenants.div_ceil(n + 1) + tenants / 6 + 2;
        prop_assert!(
            moved <= bound,
            "join moved {} of {} tenants (n={}, vnodes={}, bound={})",
            moved, tenants, n, vnodes, bound
        );
    }
}
