#!/usr/bin/env bash
# Ingest smoke: online model maintenance end to end against a release
# server. A background loadgen keeps predict traffic flowing (plus its own
# open-loop paced ingest writer on one tenant) while the foreground driver
# appends 50 labelled batches and issues 2 rollbacks on a second tenant,
# verifying every /rows ack against a pinned-version read before sending
# the next batch. Zero client errors anywhere; every access-log line must
# parse as JSON and carry the ingest stage; the Prometheus exposition must
# include the append counters and pass ci/check_prometheus.py. Last, the
# server is killed and booted again on the same --model-dir: one append
# (which reads the tenant's rows from the store head) and one rollback
# must continue the version chain, each ack agreeing with a pinned read.
#
# usage: ingest_smoke.sh path/to/release/bin/dir
set -euo pipefail

BIN=${1:?usage: ingest_smoke.sh BIN_DIR}
ADDR=127.0.0.1:8790
DIR=$(mktemp -d /tmp/ingest-models.XXXXXX)
CSV=$(mktemp /tmp/ingest-smoke.XXXXXX.csv)
ACCESS_LOG=$(mktemp /tmp/ingest-access.XXXXXX.jsonl)
SERVER=

cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
  rm -rf "$DIR" "$CSV" "$ACCESS_LOG"
}
trap cleanup EXIT

awk 'BEGIN {
  print "f0,f1,label"; srand(11);
  for (i = 0; i < 2000; i++) {
    c = i % 2;
    printf "%.4f,%.4f,%d\n", c * 3 + rand() * 2, c * 3 + rand() * 2, c;
  }
}' > "$CSV"

boot() {
  "$BIN/gbabs" serve "$CSV" --addr "$ADDR" \
    --model-dir "$DIR" --max-versions 40 \
    --request-timeout-ms 2000 \
    --access-log "$ACCESS_LOG" &
  SERVER=$!
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/readyz" > /dev/null && break
    sleep 0.2
  done
  curl -sf "http://$ADDR/readyz"; echo
}
boot

echo "phase 1: predict load + paced loadgen ingest writer, in the background"
"$BIN/loadgen" --addr "$ADDR" \
  --threads 2 --duration-s 6 --batch 4 --lo 0 --hi 5 \
  --ingest-rate 25 --ingest-batch 4 --ingest-model lg-live \
  > /tmp/ingest-loadgen.json &
LOADGEN=$!

echo "phase 2: 50 verified appends + 2 rollbacks on a second tenant"
python3 - "http://$ADDR" <<'EOF'
import json, sys, urllib.request

base = sys.argv[1]

def call(method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())

n_rows = 0
history = []  # (store_version, n_rows) of every ack, in order
for i in range(50):
    label = i % 2
    c = label * 4.0
    rows = [[c + (i % 7) * 0.13, c + (i % 5) * 0.21],
            [c + 0.5 + (i % 3) * 0.17, c + 0.25 + (i % 4) * 0.11]]
    # n_classes pins the label space at creation: the first batch is
    # single-class, and inference from it would reject label 1 later.
    ack = call("POST", "/models/smoke/rows",
               {"rows": rows, "labels": [label, label], "n_classes": 2})
    n_rows += 2
    assert ack["appended"] == 2, ack
    assert ack["n_rows"] == n_rows, (ack, n_rows)
    history.append((ack["store_version"], ack["n_rows"]))
    # Every /rows ack must be readable at its pinned version: the 200
    # means the version is durable, so the pinned read is not racy.
    pin = call("GET", f"/models/smoke?version={ack['store_version']}")
    assert pin["version"] == ack["store_version"], (pin, ack)
    assert pin["n_rows"] == ack["n_rows"], (pin, ack)
    assert pin["n_balls"] == ack["n_balls"], (pin, ack)
    # Interleave a predict against the maintained tenant.
    pred = call("POST", "/predict", {"model": "smoke", "rows": [rows[0]]})
    assert pred["predictions"][0] in (0, 1), pred
    if i in (24, 41):
        target_v, target_rows = history[-5]
        rb = call("POST", "/models/smoke/rollback", {"version": target_v})
        assert rb["rolled_back_to"] == target_v, rb
        head = call("GET", "/models/smoke")
        assert head["n_rows"] == target_rows, (head, target_rows)
        assert head["version"] == rb["store_version"], (head, rb)
        n_rows = target_rows
        history.append((rb["store_version"], target_rows))
print(f"  OK: 50 appends + 2 rollbacks verified ack-for-ack, "
      f"head at {n_rows} rows")
EOF

wait "$LOADGEN"
python3 - /tmp/ingest-loadgen.json <<'EOF'
import json
r = json.load(open("/tmp/ingest-loadgen.json"))
assert r["requests"] > 0 and r["errors"] == 0, r
ing = r["ingest"]
assert ing["appends"] > 0 and ing["errors"] == 0, ing
assert ing["last_n_rows"] == ing["rows"], ing
print(f"  OK: {r['requests']} predict requests, {ing['appends']} appends "
      f"({ing['rows']} rows) — zero client errors")
EOF

echo "phase 3: access-log integrity + ingest stage + prometheus counters"
sleep 1
python3 - "$ACCESS_LOG" <<'EOF'
import json, sys
lines = ingests = timed = 0
with open(sys.argv[1]) as f:
    for line in f:
        if not line.strip():
            continue
        lines += 1
        r = json.loads(line)  # any torn/interleaved line throws here
        assert "ingest_us" in r["stages"], r
        if r["endpoint"].endswith(("/rows", "/rollback")):
            ingests += 1
            if r["status"] == 200 and r["stages"]["ingest_us"] > 0:
                timed += 1
assert lines > 0, "access log is empty"
assert ingests >= 52, f"expected >= 52 mutation lines, saw {ingests}"
assert timed > 0, "no mutation line recorded time in the ingest stage"
print(f"  OK: {lines} JSON lines, {ingests} mutation lines, "
      f"{timed} with ingest_us > 0")
EOF

curl -sf "http://$ADDR/metrics?format=prometheus" > /tmp/ingest-prom.txt
python3 ci/check_prometheus.py /tmp/ingest-prom.txt
python3 - /tmp/ingest-prom.txt <<'EOF'
lines = open("/tmp/ingest-prom.txt").read().splitlines()
def value(sample):
    hits = [l for l in lines if l.startswith(sample)]
    assert hits, f"missing prometheus sample {sample}"
    return sum(float(l.rsplit(" ", 1)[1]) for l in hits)
appends = value('gb_requests_total{endpoint="append"}')
rollbacks = value('gb_requests_total{endpoint="rollback"}')
rows = value("gb_append_rows_total")
assert appends >= 52 and rollbacks >= 2 and rows >= 100, (appends, rollbacks, rows)
tenant_rows = value("gb_tenant_append_rows_total")
assert tenant_rows == rows, (tenant_rows, rows)
print(f"  OK: prometheus shows {int(appends)} appends, "
      f"{int(rollbacks)} rollbacks, {int(rows)} appended rows")
EOF

echo "phase 4: restart on the same --model-dir, then append + roll back"
kill -9 "$SERVER"
wait "$SERVER" 2>/dev/null || true
boot
python3 - "http://$ADDR" <<'EOF'
import json, sys, urllib.request

base = sys.argv[1]

def call(method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())

def agrees_with_pin(ack, n_rows):
    pin = call("GET", f"/models/smoke?version={ack['store_version']}")
    assert pin["version"] == pin["head"] == ack["store_version"], (pin, ack)
    assert pin["n_rows"] == n_rows, (pin, n_rows)
    assert pin["n_balls"] == ack["n_balls"], (pin, ack)

# The restarted server holds `smoke` cold: this append reads its rows
# from the store head.
head = call("GET", "/models/smoke")
ack = call("POST", "/models/smoke/rows",
           {"rows": [[0.3, 0.4], [4.2, 4.1]], "labels": [0, 1]})
assert not ack["created"], ack
assert ack["n_rows"] == head["n_rows"] + 2, (ack, head)
assert ack["store_version"] == head["version"] + 1, (ack, head)
agrees_with_pin(ack, ack["n_rows"])
rb = call("POST", "/models/smoke/rollback", {"version": head["version"]})
assert rb["rolled_back_to"] == head["version"], rb
assert rb["store_version"] == ack["store_version"] + 1, (rb, ack)
agrees_with_pin(rb, head["n_rows"])
print(f"  OK: after the restart, append to v{ack['store_version']} "
      f"({ack['n_rows']} rows) and rollback to v{rb['store_version']} "
      f"({head['n_rows']} rows) continue the chain")
EOF

echo "ingest smoke: all phases passed"
