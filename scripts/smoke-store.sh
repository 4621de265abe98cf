#!/usr/bin/env bash
# Storage-engine smoke test: a real vmat-server with a deliberately tiny
# -store-segment-bytes runs a sweep big enough to roll the journal
# through several segments and is stopped cleanly, which writes the
# index snapshot. Restarted, it runs a second sweep whose cells land
# after the snapshot, and is then SIGKILLed with no warning. It must
# come back whole: `vmat-store verify` passes offline on the killed
# directory (and fails naming a sealed segment deleted from a copy of
# it), the restart loads the snapshot and replays only the tail
# (no full replay), a restarted server serves every cell of both sweeps
# from the store (cached == cells, executed == 0), and each re-exported
# CSV is bit-identical to its pre-kill baseline. SMOKE_PORT and
# SEGMENT_BYTES override the defaults.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18107}"
SEGMENT_BYTES="${SEGMENT_BYTES:-2048}"
BASE="http://127.0.0.1:${PORT}"
GRID='{"n": [30, 40, 50, 60], "attack": ["none", "drop", "junk"], "trials": 4, "seed": 23, "workers": 1}'
GRID2='{"n": [30, 40, 50, 60], "attack": ["none", "drop", "junk"], "trials": 4, "seed": 29, "workers": 1}'
CELLS=12
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "smoke-store: FAIL: $*" >&2
  echo "--- server log ---" >&2; cat "$WORK/server.log" >&2 || true
  exit 1
}

start_server() {
  "$WORK/vmat-server" -addr "127.0.0.1:${PORT}" \
    -data-dir "$WORK/store" \
    -store-segment-bytes "$SEGMENT_BYTES" \
    -store-compact-interval 1s \
    >>"$WORK/server.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server never became healthy"
}

# run_sweep submits the grid in $1, waits for it to finish and prints
# its id.
run_sweep() {
  local id status
  id=$(curl -fsS -X POST "$BASE/v1/sweeps" -d "$1" \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$id" ] || fail "sweep submission returned no id"
  for _ in $(seq 1 600); do
    status=$(curl -fsS "$BASE/v1/sweeps/$id" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
    [ "$status" = done ] && break
    [ "$status" = failed ] && fail "sweep ended failed"
    sleep 0.1
  done
  [ "$status" = done ] || fail "sweep never finished (last status: ${status:-none})"
  echo "$id"
}

# drain_server stops the server with SIGTERM and checks it exited 0.
drain_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
  SERVER_PID=""
}

# check_cached resubmits the grid in $1 and checks that every cell is
# served from the store and the CSV export matches the file in $2.
check_cached() {
  local id view cached executed
  id=$(run_sweep "$1")
  view=$(curl -fsS "$BASE/v1/sweeps/$id")
  cached=$(echo "$view" | sed -n 's/.*"cached":\([0-9]*\).*/\1/p')
  executed=$(echo "$view" | sed -n 's/.*"executed":\([0-9]*\).*/\1/p')
  [ "${cached:-0}" -eq "$CELLS" ] \
    || fail "restarted server cached ${cached:-0}/${CELLS} cells (view: $view)"
  [ "${executed:-1}" -eq 0 ] \
    || fail "restarted server re-executed ${executed} cells (view: $view)"
  curl -fsS "$BASE/v1/sweeps/$id/results?format=csv" >"$WORK/after.csv"
  cmp -s "$2" "$WORK/after.csv" \
    || fail "CSV export of $(basename "$2") changed across the SIGKILL/restart"
}

echo "smoke-store: building binaries"
go build -o "$WORK/vmat-server" ./cmd/vmat-server
go build -o "$WORK/vmat-store" ./cmd/vmat-store

echo "smoke-store: starting vmat-server (segment-bytes=${SEGMENT_BYTES})"
start_server

echo "smoke-store: running a ${CELLS}-cell sweep across several segment rolls"
SWEEP_ID=$(run_sweep "$GRID")
curl -fsS "$BASE/v1/sweeps/$SWEEP_ID/results?format=csv" >"$WORK/baseline.csv"
[ -s "$WORK/baseline.csv" ] || fail "baseline CSV export is empty"

SEGS=$(ls "$WORK/store"/seg-*.vmat 2>/dev/null | wc -l)
[ "$SEGS" -ge 3 ] || fail "only $SEGS segment files on disk, want >= 3 rolls"
[ ! -e "$WORK/store/MANIFEST.vmat" ] \
  || fail "the live data dir holds a MANIFEST.vmat; the segment names are the layout"
curl -fsS "$BASE/metrics" | grep -q '^store_segments ' \
  || fail "store_segments missing from /metrics"
curl -fsS "$BASE/healthz" | grep -q '"store"' \
  || fail "healthz has no store section"

echo "smoke-store: stopping the server cleanly, which writes the index snapshot"
drain_server
[ -s "$WORK/store/index.snap" ] || fail "clean stop left no index snapshot"

echo "smoke-store: restarting and running a second sweep after the snapshot"
start_server
SWEEP_ID=$(run_sweep "$GRID2")
curl -fsS "$BASE/v1/sweeps/$SWEEP_ID/results?format=csv" >"$WORK/baseline2.csv"
[ -s "$WORK/baseline2.csv" ] || fail "second baseline CSV export is empty"

SEGS=$(ls "$WORK/store"/seg-*.vmat 2>/dev/null | wc -l)
echo "smoke-store: SIGKILLing the server ($SEGS segments on disk)"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[ -s "$WORK/store/index.snap" ] || fail "the killed directory holds no index snapshot"

echo "smoke-store: offline verify of the killed directory"
"$WORK/vmat-store" inspect "$WORK/store" >"$WORK/inspect.txt" \
  || fail "vmat-store inspect failed on the killed directory"
"$WORK/vmat-store" verify "$WORK/store" >"$WORK/verify.txt" \
  || fail "vmat-store verify failed: $(cat "$WORK/verify.txt")"
grep -q '^ok$' "$WORK/verify.txt" || fail "verify did not report ok"

# A lost sealed segment leaves a gap in the segment ids, which verify
# must report, naming the file.
LOST=seg-00000002-0001.vmat
cp -r "$WORK/store" "$WORK/lost"
rm "$WORK/lost/$LOST"
if "$WORK/vmat-store" verify "$WORK/lost" >"$WORK/verify-lost.txt" 2>&1; then
  fail "verify passed with $LOST deleted: $(cat "$WORK/verify-lost.txt")"
fi
grep -q "PROBLEM: .*$LOST" "$WORK/verify-lost.txt" \
  || fail "verify did not name the lost $LOST: $(cat "$WORK/verify-lost.txt")"

echo "smoke-store: restarting on the same data dir"
LOG_MARK=$(wc -l <"$WORK/server.log")
start_server

# The restart must load the snapshot and replay only the segment tails
# written after it.
tail -n +"$((LOG_MARK + 1))" "$WORK/server.log" >"$WORK/restart.log"
if grep -q 'replaying all segments' "$WORK/restart.log"; then
  fail "restart replayed every segment instead of loading the snapshot"
fi
AGE=$(curl -fsS "$BASE/metrics" | sed -n 's/^store_snapshot_age_seconds \(-*[0-9]*\)$/\1/p')
[ -n "$AGE" ] && [ "$AGE" -ge 0 ] \
  || fail "store_snapshot_age_seconds is '${AGE}' after the restart, want >= 0"

# Both grids must be answered entirely from the store: same sweep
# shape, zero engine executions, and bit-identical CSVs.
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" | grep -q '"status":"ok"'; then break; fi
  sleep 0.1
done
check_cached "$GRID" "$WORK/baseline.csv"
check_cached "$GRID2" "$WORK/baseline2.csv"

echo "smoke-store: draining"
drain_server
[ "$(grep -c "drained, bye" "$WORK/server.log")" -eq 2 ] || fail "server did not drain cleanly"

echo "smoke-store: PASS"
