#!/usr/bin/env bash
# Chaos smoke: drive a gb-serve instance whose model store injects faults
# on 5% of I/O operations, with two tiny tenants thrashing a 1-byte
# residency budget so every predict forces a cold reload (and therefore a
# chance to hit an injected fault). The retrying loadgen client must see
# ZERO errors with amplification < 1.2 — and keep that contract while the
# server is SIGKILLed and restarted mid-run.
#
# The server also runs with --access-log: after the chaos phases, every
# line of the log must parse as JSON with the required fields, the ids of
# loadgen's slowest-request report must appear in it, and the Prometheus
# exposition must pass ci/check_prometheus.py.
#
# usage: chaos_smoke.sh path/to/release/bin/dir
set -euo pipefail

BIN=${1:?usage: chaos_smoke.sh BIN_DIR}
ADDR=127.0.0.1:8788
DIR=$(mktemp -d /tmp/chaos-models.XXXXXX)
CSV=$(mktemp /tmp/chaos-smoke.XXXXXX.csv)
ACCESS_LOG=$(mktemp /tmp/chaos-access.XXXXXX.jsonl)
SERVER=

cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null || true
  rm -rf "$DIR" "$CSV" "$ACCESS_LOG"
}
trap cleanup EXIT

awk 'BEGIN {
  print "f0,f1,label"; srand(7);
  for (i = 0; i < 2000; i++) {
    c = i % 2;
    printf "%.4f,%.4f,%d\n", c * 3 + rand() * 2, c * 3 + rand() * 2, c;
  }
}' > "$CSV"

boot() {
  "$BIN/gbabs" serve "$CSV" --addr "$ADDR" \
    --model-dir "$DIR" --model-mem-budget 1 \
    --request-timeout-ms 2000 \
    --store-fault-rate 0.05 --store-fault-seed 7 \
    --access-log "$ACCESS_LOG" &
  SERVER=$!
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/readyz" > /dev/null && break
    sleep 0.2
  done
  curl -sf "http://$ADDR/readyz"; echo
}

# Two tiny 2-feature tenants; the 1-byte budget makes them evict each
# other, so round-robin predict traffic cold-reloads from the store on
# every request — the injected-fault hot path. curl --retry absorbs the
# 5% of publishes that themselves draw a fault (503 + Retry-After).
publish_tenants() {
  for t in default-0 default-1; do
    curl -sf --retry 5 -X "POST" "http://$ADDR/models/$t" -d '{
      "k": 1,
      "model": {
        "balls": [
          {"center": [1.0, 1.0], "radius": 0.8, "label": 0,
           "members": [0], "center_row": 0, "purity": 1.0},
          {"center": [4.0, 4.0], "radius": 0.8, "label": 1,
           "members": [1], "center_row": 1, "purity": 1.0}
        ],
        "noise": [], "orphan_count": 0, "iterations": 1
      }
    }' > /dev/null
  done
}

check() {
  python3 - "$1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['requests'] > 0 and r['errors'] == 0, r
assert r['gave_up'] == 0, r
assert r['amplification'] < 1.2, r
print(f"  OK: {r['requests']} requests, {r['retries']} retries, "
      f"amplification {r['amplification']:.4f}")
EOF
}

boot
publish_tenants

echo "phase 1: 5% injected store faults on every cold reload"
"$BIN/loadgen" --addr "$ADDR" --chaos --models 2 \
  --threads 2 --duration-s 2 --batch 4 --lo 0 --hi 5 > /tmp/chaos1.json
check /tmp/chaos1.json
python3 -c "
import json
r = json.load(open('/tmp/chaos1.json'))
assert r['retries'] > 0, ('fault path never exercised', r)
"

echo "phase 2: SIGKILL mid-run, restart on the same store, client rides it out"
"$BIN/loadgen" --addr "$ADDR" --chaos --models 2 \
  --threads 2 --duration-s 6 --batch 4 --lo 0 --hi 5 \
  --retry-budget-ms 10000 --max-attempts 60 > /tmp/chaos2.json &
LOADGEN=$!
sleep 2
kill -9 "$SERVER"
boot
wait "$LOADGEN"
check /tmp/chaos2.json

# sed reads all of its input (head would SIGPIPE json.tool under pipefail)
curl -sf "http://$ADDR/metrics" -o /tmp/chaos-metrics.json
python3 -m json.tool /tmp/chaos-metrics.json | sed -n '1,40p'

echo "phase 3: access-log integrity + id correlation + prometheus lint"
# Settle and flush: the writer thread drains asynchronously, and the
# phase-1 half of the log died with the SIGKILLed first server (the
# restarted one reopened the file in append mode), so only require the
# *current* server's lines to be complete — every line must still parse.
sleep 1
python3 - "$ACCESS_LOG" /tmp/chaos2.json <<'EOF'
import json, sys
ids, lines = set(), 0
with open(sys.argv[1]) as f:
    for line in f:
        if not line.strip():
            continue
        lines += 1
        r = json.loads(line)  # any torn/interleaved line throws here
        for field in ("ts_ms", "id", "endpoint", "status", "rows",
                      "total_us", "stages"):
            assert field in r, (field, r)
        for stage in ("predict_us", "store_io_us", "serialize_us"):
            assert stage in r["stages"], (stage, r)
        ids.add(r["id"])
assert lines > 0, "access log is empty"
report = json.load(open(sys.argv[2]))
slow = [s["id"] for s in report.get("slowest", [])]
assert slow, "loadgen report has no slowest ids"
found = [i for i in slow if i in ids]
# The SIGKILL can eat a handful of in-flight lines; most must correlate.
assert len(found) >= len(slow) // 2, (found, slow)
print(f"  OK: {lines} JSON lines, {len(ids)} unique ids, "
      f"{len(found)}/{len(slow)} loadgen slowest ids found in log")
EOF

curl -sf "http://$ADDR/metrics?format=prometheus" > /tmp/chaos-prom.txt
python3 ci/check_prometheus.py /tmp/chaos-prom.txt

# The slowest logged request must also be findable in /debug/requests.
curl -sf "http://$ADDR/debug/requests" -o /tmp/chaos-debug.json
python3 - /tmp/chaos-debug.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["capacity"] > 0 and r["slowest"], r
top = r["slowest"][0]
assert top["total_us"] > 0 and "stages" in top, top
print(f"  OK: /debug/requests holds {len(r['slowest'])} slowest "
      f"(top {top['total_us']} us on {top['endpoint']}), "
      f"{len(r['errored'])} errored")
EOF
