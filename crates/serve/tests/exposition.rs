//! Both `/metrics` formats carry the same series, for the server and the
//! router: after traffic on every endpoint, each Prometheus counter and
//! gauge sample equals the JSON value at its family's declared place,
//! every declared family has a sample, and every counter or gauge in the
//! JSON body belongs to a declared family.

use gb_dataset::catalog::DatasetId;
use gb_serve::metrics::{Family, Kind, ROUTER_FAMILIES, SERVER_FAMILIES};
use gb_serve::registry::LoadOptions;
use gb_serve::{HttpClient, ModelRegistry, ModelStore, Router, RouterConfig, ServeConfig, Server};
use gbabs::{rd_gbg, RdGbgConfig};
use serde::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// One Prometheus sample line: name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_prometheus(text: &str) -> Vec<Sample> {
    let lines = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    lines
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample value");
            let value = if value == "+Inf" {
                f64::INFINITY
            } else {
                value.parse().expect("numeric sample")
            };
            let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
            let labels = labels.strip_suffix('}').expect("closing brace");
            let labels = labels.split("\",").filter(|kv| !kv.is_empty()).map(|kv| {
                let (k, v) = kv.split_once("=\"").expect("label pair");
                (k.to_string(), v.trim_end_matches('"').to_string())
            });
            (name.to_string(), labels.collect(), value)
        })
        .collect()
}

/// The declared family a sample belongs to, and the sample's suffix.
fn family_of<'f>(families: &[&'f Family], name: &str) -> Option<(&'f Family, &'static str)> {
    families.iter().find_map(|f| {
        let suffixes = ["", "_bucket", "_sum", "_count"].into_iter();
        let mut found = suffixes.filter(|s| name.strip_suffix(s) == Some(f.name));
        found.next().map(|suffix| (*f, suffix))
    })
}

/// The JSON value at `family`'s place, `{label}` steps taken from
/// `labels`.
fn json_at<'v>(body: &'v Value, family: &Family, labels: &[(String, String)]) -> Option<&'v Value> {
    let label = |name: &str| labels.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let mut node = body;
    for step in family.json.split('.') {
        node = if let Some(name) = step.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
            node.get(label(name)?)?
        } else if let Some((key, item)) = step.split_once('[') {
            let (field, name) = item.strip_suffix("}]")?.split_once("={")?;
            let Value::Arr(items) = node.get(key)? else {
                return None;
            };
            let id = Value::Str(label(name)?.clone());
            items.iter().find(|v| v.get(field) == Some(&id))?
        } else {
            node.get(step)?
        };
    }
    Some(node)
}

/// True when `path` (object keys, `[]` for an array element) is
/// `family`'s place, or lies inside it for an info family.
fn place_covers(family: &Family, path: &[String]) -> bool {
    let mut want = Vec::new();
    for step in family.json.split('.') {
        match step.split_once('[') {
            Some((key, _)) => want.extend([key, "[]"]),
            None => want.push(step),
        }
    }
    let matches = want
        .iter()
        .zip(path)
        .all(|(w, p)| w.starts_with('{') || w == p);
    matches && (want.len() == path.len() || family.kind == Kind::Info && want.len() < path.len())
}

/// Every number or boolean leaf of `v` outside a latency-histogram object.
fn leaves(v: &Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    let children: Vec<(String, &Value)> = match v {
        Value::Num(_) | Value::Bool(_) => return out.push(path.clone()),
        Value::Obj(fields) if v.get("p50_us").is_none() => {
            fields.iter().map(|(k, c)| (k.clone(), c)).collect()
        }
        Value::Arr(items) => items.iter().map(|c| ("[]".to_string(), c)).collect(),
        _ => return,
    };
    for (key, child) in children {
        path.push(key);
        leaves(child, path, out);
        path.pop();
    }
}

/// Scrapes both formats (JSON first) and checks them against each other
/// and the declarations. `drift` bounds how far a series may move between
/// the two scrapes (uptime; the router counts the scrape itself).
fn assert_parity(c: &mut HttpClient, families: &[&Family], drift: impl Fn(&str) -> f64) {
    let (_, json) = c.request("GET", "/metrics", None).unwrap();
    let body: Value = serde_json::from_str(&json).unwrap();
    let (_, text) = c
        .request("GET", "/metrics?format=prometheus", None)
        .unwrap();
    let samples = parse_prometheus(&text);
    for (name, labels, value) in &samples {
        let (family, suffix) = family_of(families, name).expect("declared family");
        let at = json_at(&body, family, labels)
            .unwrap_or_else(|| panic!("{name}{labels:?}: nothing at '{}' in {json}", family.json));
        let want = match (family.kind, suffix, at) {
            (Kind::Info, _, fields) => {
                for (k, v) in labels {
                    let field = match fields.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        Some(Value::Num(n)) => n.to_string(),
                        other => panic!("{name}: build field {k} is {other:?}"),
                    };
                    assert_eq!(&field, v, "{name} label {k}");
                }
                1.0
            }
            (Kind::Histogram | Kind::Summary, "_count", hist) => match hist.get("count") {
                Some(Value::Num(n)) => *n,
                other => panic!("{name}: no count at '{}': {other:?}", family.json),
            },
            (Kind::Histogram | Kind::Summary, _, _) => continue,
            (_, _, Value::Num(n)) => *n,
            (_, _, Value::Bool(b)) => f64::from(u8::from(*b)),
            (_, _, other) => panic!("{name}{labels:?}: JSON holds {other:?}"),
        };
        let ok = want <= *value && *value <= want + drift(name);
        assert!(ok, "{name}{labels:?}: Prometheus {value}, JSON {want}");
    }
    for family in families {
        let sampled =
            |(name, _, _): &Sample| family_of(families, name).unwrap().0.name == family.name;
        assert!(samples.iter().any(sampled), "{} has no sample", family.name);
    }
    let mut paths = Vec::new();
    leaves(&body, &mut Vec::new(), &mut paths);
    for path in paths {
        let covered = families.iter().any(|f| place_covers(f, &path));
        assert!(
            covered,
            "JSON series {} has no Prometheus family",
            path.join(".")
        );
    }
}

fn uptime_drift(name: &str) -> f64 {
    if name.ends_with("uptime_seconds") {
        60.0
    } else {
        0.0
    }
}

/// Boots a server over `registry` with the S5 model as `default`; returns
/// it, a client, and a `/predict` body for one training row.
fn boot(
    registry: ModelRegistry,
) -> (
    gb_serve::ServerHandle,
    HttpClient,
    gbabs::RdGbgModel,
    String,
) {
    let data = DatasetId::S5.generate(0.05, 1);
    let model = rd_gbg(&data, &RdGbgConfig::default());
    registry
        .publish("default", &model, &LoadOptions::default())
        .unwrap();
    let config = ServeConfig::default();
    let handle = Server::bind(config, Arc::new(registry))
        .unwrap()
        .start()
        .unwrap();
    let c = HttpClient::connect(handle.addr(), Duration::from_secs(20)).unwrap();
    let row = format!("{{\"row\":[{},{}]}}", data.row(0)[0], data.row(0)[1]);
    (handle, c, model, row)
}

#[test]
fn server_formats_carry_the_same_series() {
    let dir = std::env::temp_dir().join(format!("gb_exposition_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    let (registry, _) = ModelRegistry::with_store(store, Some(1 << 30)).expect("scan store");
    let (handle, mut c, model, row) = boot(registry);
    let reload = format!("{{\"model\":{}}}", serde_json::to_string(&model).unwrap());
    let mut csv = String::from("f0,f1,label\\n");
    for i in 0..40 {
        let _ = write!(csv, "{}.{},{},{}\\n", i / 10, i % 10, i % 3, i % 2);
    }
    let sample = format!("{{\"csv\":\"{csv}\",\"rho\":3}}");
    let rows = "{\"rows\":[[0.0,0.0],[0.1,0.0],[5.0,5.0],[5.1,5.0]],\"labels\":[0,0,1,1]}";
    for (method, path, body, status) in [
        ("GET", "/healthz", "", 200),
        ("GET", "/readyz", "", 200),
        ("GET", "/models", "", 200),
        ("GET", "/model?name=default", "", 200),
        ("POST", "/predict", &row, 200),
        ("POST", "/predict", "{\"rows\":1}", 400),
        ("POST", "/predict", "{\"model\":\"ghost\",\"row\":[0]}", 404),
        ("POST", "/sample", &sample, 200),
        ("POST", "/models/second", &reload, 200),
        ("POST", "/models/kept/rows", rows, 200),
        ("POST", "/models/kept/rows", rows, 200),
        ("POST", "/models/kept/rollback", "{\"version\":1}", 200),
        ("GET", "/models/kept", "", 200),
        ("DELETE", "/models/second", "", 200),
        ("GET", "/debug/requests", "", 200),
        ("GET", "/nowhere", "", 404),
        ("DELETE", "/predict", "", 405),
    ] {
        let (got, reply) = c
            .request(method, path, (!body.is_empty()).then_some(body))
            .unwrap();
        assert_eq!(got, status, "{method} {path}: {reply}");
    }
    assert_parity(&mut c, SERVER_FAMILIES, uptime_drift);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn router_formats_carry_the_same_series() {
    let (backend, _, _, row) = boot(ModelRegistry::new());
    let router = Router::bind(RouterConfig {
        // The second backend never answers: a down shard's series too.
        backends: vec![backend.addr().to_string(), "127.0.0.1:9".into()],
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .unwrap();
    router.warm_up();
    let handle = router.start().unwrap();
    let mut c = HttpClient::connect(handle.addr(), Duration::from_secs(20)).unwrap();
    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("GET", "/readyz", ""),
        ("GET", "/cluster?tenant=default", ""),
        ("POST", "/predict", &row),
        ("GET", "/model?name=default", ""),
        ("GET", "/models", ""),
        ("GET", "/models/default", ""),
        ("DELETE", "/models/ghost", ""),
        ("GET", "/debug/requests", ""),
        ("GET", "/nowhere", ""),
    ] {
        c.request(method, path, (!body.is_empty()).then_some(body))
            .unwrap();
    }
    assert_parity(&mut c, ROUTER_FAMILIES, |name| match name {
        "gb_router_requests_total" => 1.0,
        name => uptime_drift(name),
    });
    handle.stop();
    backend.stop();
}
