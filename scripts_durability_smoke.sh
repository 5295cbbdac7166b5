#!/usr/bin/env bash
# Kill-9 durability smoke against the REAL binary: boot `logcl serve` with a
# WAL, ack a few ingests, SIGKILL the process (no drain, no flush beyond the
# per-ack group commit), restart on the same WAL directory, and assert via
# /metrics that every acked fact came back — plus that the idempotency
# window survived the crash (a resent ingest id answers deduplicated).
#
# Usage: scripts_durability_smoke.sh [BIN] (default ./target/release/logcl)
set -euo pipefail

BIN=${1:-./target/release/logcl}
ADDR=${ADDR:-127.0.0.1:7917}
WORK=$(mktemp -d)
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

MODEL_FLAGS=(--preset icews14 --scale 0.15 --dim 8 --m 2)

wait_healthz() {
  for _ in $(seq 1 150); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: server did not come up on $ADDR" >&2
  exit 1
}

horizon() {
  curl -sf "http://$ADDR/healthz" | sed -n 's/.*"horizon":\([0-9]*\).*/\1/p'
}

ingest() { # ingest <id> ; sends 2 facts at the current horizon
  local id=$1 t body
  t=$(horizon)
  body=$(curl -sf -X POST "http://$ADDR/ingest" \
    -H "X-LogCL-Ingest-Id: $id" \
    -d "{\"time\": $t, \"facts\": [[1, 0, 2], [3, 1, 4]], \"update\": false}")
  echo "$body"
}

echo "== train a small checkpoint =="
"$BIN" train "${MODEL_FLAGS[@]}" --epochs 1 --save "$WORK/model.json"

echo "== boot with WAL, ack 3 ingests =="
"$BIN" serve "${MODEL_FLAGS[@]}" --load "$WORK/model.json" \
  --addr "$ADDR" --wal-dir "$WORK/wal" &
SRV_PID=$!
wait_healthz
for i in 1 2 3; do
  body=$(ingest "smoke-$i")
  echo "ingest smoke-$i -> $body"
  echo "$body" | grep -q '"durable":true' || {
    echo "FAIL: ingest smoke-$i was not acked durable" >&2
    exit 1
  }
done

echo "== kill -9 mid-flight =="
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "== restart on the same WAL dir =="
"$BIN" serve "${MODEL_FLAGS[@]}" --load "$WORK/model.json" \
  --addr "$ADDR" --wal-dir "$WORK/wal" &
SRV_PID=$!
wait_healthz

metrics=$(curl -sf "http://$ADDR/metrics")
replayed=$(echo "$metrics" | sed -n 's/^logcl_wal_frames_total{kind="replayed"} //p')
recovered=$(echo "$metrics" | sed -n 's/^logcl_wal_recovered_facts_total //p')
[ "$replayed" = "3" ] || {
  echo "FAIL: expected 3 replayed WAL frames, got '$replayed'" >&2
  exit 1
}
[ "$recovered" = "6" ] || {
  echo "FAIL: expected 6 recovered facts, got '$recovered'" >&2
  exit 1
}
echo "recovered: $replayed frames, $recovered facts"

echo "== resent ingest id must dedup across the crash =="
body=$(ingest "smoke-1")
echo "ingest smoke-1 (resend) -> $body"
echo "$body" | grep -q '"deduplicated":true' || {
  echo "FAIL: resent ingest id smoke-1 was re-applied after recovery" >&2
  exit 1
}

curl -sf -X POST "http://$ADDR/shutdown" >/dev/null
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
echo "OK: durability smoke passed"
