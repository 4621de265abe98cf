#!/usr/bin/env bash
# Multi-process cluster smoke test: a real vmat-server -cluster process
# and WORKERS real vmat-worker processes (default 1), talking over
# loopback — HTTP for registration, the binary streaming transport for
# work. Verifies the fleet registers (healthz leaves "degraded"), one
# job dispatches through it (service_jobs_executed_total{path=
# "cluster"}), and every process drains cleanly on SIGTERM with exit
# code 0. SHARD_TRIALS > 0 makes the server split the job into
# trial-range shards and asserts the shard pipeline (planned/merged/
# assembled counters, wire frames) actually carried them. Either way no
# unit may be lost or refused on the way: a frame or payload one side
# cannot decode, an abandoned unit, or a stale or rejected completion
# fails the smoke instead of being absorbed by a requeue or the local
# fallback.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18097}"
WIRE_PORT="$((PORT + 1))"
WORKERS="${WORKERS:-1}"
SHARD_TRIALS="${SHARD_TRIALS:-0}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""
WORKER_PIDS=()

cleanup() {
  for pid in "${WORKER_PIDS[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "smoke-cluster: FAIL: $*" >&2
  echo "--- server log ---" >&2; cat "$WORK/server.log" >&2 || true
  for log in "$WORK"/worker-*.log; do
    echo "--- $(basename "$log") ---" >&2; cat "$log" >&2 || true
  done
  exit 1
}

echo "smoke-cluster: building binaries"
go build -o "$WORK/vmat-server" ./cmd/vmat-server
go build -o "$WORK/vmat-worker" ./cmd/vmat-worker

echo "smoke-cluster: starting vmat-server -cluster on :${PORT} (shard-trials=${SHARD_TRIALS})"
"$WORK/vmat-server" -addr "127.0.0.1:${PORT}" -cluster -lease-ttl 5s \
  -wire-addr "127.0.0.1:${WIRE_PORT}" -shard-trials "$SHARD_TRIALS" \
  -data-dir "$WORK/store" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "server never became healthy"

# Cluster mode with an empty fleet must report degraded.
curl -fsS "$BASE/healthz" | grep -q '"degraded"' \
  || fail "healthz not degraded with zero workers"

echo "smoke-cluster: starting ${WORKERS} vmat-worker process(es)"
for i in $(seq 1 "$WORKERS"); do
  "$WORK/vmat-worker" -server "$BASE" -name "smoke-$i" \
    >"$WORK/worker-$i.log" 2>&1 &
  WORKER_PIDS+=("$!")
done

for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" | grep -q '"status":"ok"'; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' \
  || fail "healthz still degraded after the workers joined"

echo "smoke-cluster: submitting a job through the fleet"
JOB_ID=$(curl -fsS -X POST "$BASE/v1/jobs" -d \
  '{"n":30,"topology":"geometric","query":"min","attack":"drop","malicious":1,"trials":3,"seed":7}' \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$JOB_ID" ] || fail "job submission returned no id"

for _ in $(seq 1 300); do
  STATUS=$(curl -fsS "$BASE/v1/jobs/$JOB_ID" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
  case "$STATUS" in
    done) break ;;
    failed|cancelled) fail "job ended $STATUS" ;;
  esac
  sleep 0.1
done
[ "$STATUS" = done ] || fail "job never finished (last status: ${STATUS:-none})"

METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q 'service_jobs_executed_total{path="cluster"} 1' \
  || fail "job did not dispatch through the cluster"
TOTAL_UNITS=$(echo "$METRICS" | awk '/^cluster_units_completed_total{/ {sum += $2} END {print sum+0}')
[ "$TOTAL_UNITS" -ge 1 ] || fail "no unit completions counted across the fleet"
WIRE_FRAMES=$(echo "$METRICS" | awk '/^wire_frames_sent_total / {print $2+0}')
[ "${WIRE_FRAMES:-0}" -ge 1 ] || fail "no frames crossed the streaming transport"

for want in 'wire_frame_errors_total 0' 'cluster_units_abandoned_total 0' 'cluster_results_stale_total 0'; do
  echo "$METRICS" | grep -qx "$want" || fail "want '$want' after the job"
done
REJECTED=$(echo "$METRICS" | grep '^cluster_results_rejected_total' || true)
[ -z "$REJECTED" ] || fail "completions were rejected: $REJECTED"

if [ "$SHARD_TRIALS" -gt 0 ]; then
  PLANNED=$(echo "$METRICS" | awk '/^cluster_shards_planned_total / {print $2+0}')
  MERGED=$(echo "$METRICS" | awk '/^cluster_shards_merged_total / {print $2+0}')
  [ "${PLANNED:-0}" -ge 2 ] \
    || fail "3-trial job at shard-trials=${SHARD_TRIALS} planned ${PLANNED:-0} shards, want >= 2"
  [ "${MERGED:-0}" -eq "$PLANNED" ] \
    || fail "planned $PLANNED shards but merged ${MERGED:-0}"
  echo "$METRICS" | grep -q '^cluster_scenarios_assembled_total 1$' \
    || fail "merged shards never assembled into the scenario"
fi

echo "smoke-cluster: draining all processes"
for idx in "${!WORKER_PIDS[@]}"; do
  kill -TERM "${WORKER_PIDS[$idx]}"
  wait "${WORKER_PIDS[$idx]}" || fail "worker $((idx + 1)) exited non-zero on SIGTERM"
  grep -q "deregistered" "$WORK/worker-$((idx + 1)).log" \
    || fail "worker $((idx + 1)) did not deregister on drain"
done
WORKER_PIDS=()

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=""
grep -q "drained, bye" "$WORK/server.log" || fail "server did not drain cleanly"

echo "smoke-cluster: PASS"
