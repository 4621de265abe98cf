#!/usr/bin/env bash
# Multi-tenant front-door smoke test against a real vmat-server process:
# two keyed tenants (one heavily rate-limited, one generous), no
# anonymous access. Verifies 401 for missing/unknown keys, that the
# limited tenant's quota exhaustion turns into 429 with a Retry-After
# header while the other tenant keeps submitting 202s, that /healthz
# reports the shed tier once the queue saturates, that per-tenant
# metrics appear in /metrics, and that SIGHUP hot-reloads the keyfile
# (a rotated key starts working without a restart).
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18127}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "smoke-tenants: FAIL: $*" >&2
  echo "--- server log ---" >&2; cat "$WORK/server.log" >&2 || true
  exit 1
}

SPEC='{"n":30,"topology":"geometric","query":"min","attack":"drop","malicious":1,"trials":2,"seed":7}'

# bigspec SEED -> a job slow enough (~1-2s) to keep the queue occupied
# while the shell saturates it. Distinct seeds matter: identical specs
# attach to the in-flight job by content address and never queue.
bigspec() {
  echo "{\"n\":400,\"topology\":\"geometric\",\"query\":\"min\",\"attack\":\"drop\",\"malicious\":1,\"trials\":30,\"seed\":$1}"
}

# post KEY [SPEC] -> writes body to $WORK/body, headers to
# $WORK/headers, prints the status code.
post() {
  local key="$1" spec="${2:-$SPEC}"
  local auth=()
  [ -n "$key" ] && auth=(-H "Authorization: Bearer $key")
  curl -sS -o "$WORK/body" -D "$WORK/headers" -w '%{http_code}' \
    "${auth[@]}" -X POST "$BASE/v1/jobs" -d "$spec"
}

echo "smoke-tenants: building binaries"
go build -o "$WORK/vmat-server" ./cmd/vmat-server

cat > "$WORK/tenants.json" <<'EOF'
{
  "tenants": [
    {"id": "limited", "key": "limited-key", "rate": 0.2, "burst": 1, "weight": 1},
    {"id": "steady", "key": "steady-key", "rate": 100, "burst": 50, "weight": 4}
  ]
}
EOF

echo "smoke-tenants: starting vmat-server with a 2-tenant keyfile on :${PORT}"
# A tiny queue and one worker make the shed tier reachable from a shell.
"$WORK/vmat-server" -addr "127.0.0.1:${PORT}" -queue 4 -workers 1 \
  -tenants "$WORK/tenants.json" >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || fail "server never became healthy"
grep -q "multi-tenant front door on: 2 keyed tenant(s)" "$WORK/server.log" \
  || fail "server did not announce the keyfile"

echo "smoke-tenants: unauthenticated and unknown keys bounce with 401"
CODE=$(post "")
[ "$CODE" = 401 ] || fail "no key -> $CODE, want 401"
CODE=$(post "wrong-key")
[ "$CODE" = 401 ] || fail "unknown key -> $CODE, want 401"

echo "smoke-tenants: limited tenant exhausts its bucket into 429 + Retry-After"
CODE=$(post "limited-key")
[ "$CODE" = 202 ] || fail "limited tenant's first job -> $CODE, want 202"
CODE=$(post "limited-key")
[ "$CODE" = 429 ] || fail "limited tenant's second job -> $CODE, want 429"
RETRY=$(awk 'tolower($1) == "retry-after:" {print $2+0}' "$WORK/headers")
[ "${RETRY:-0}" -ge 1 ] || fail "429 carried Retry-After '${RETRY:-}', want >= 1s"
grep -q "rate limit" "$WORK/body" || fail "429 body does not name the rate limit"

echo "smoke-tenants: steady tenant keeps submitting while limited is throttled"
for i in 1 2 3; do
  CODE=$(post "steady-key")
  [ "$CODE" = 202 ] || fail "steady job $i -> $CODE, want 202 (throttling leaked across tenants)"
done

echo "smoke-tenants: tenants cannot read or cancel each other's jobs"
STEADY_JOB=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$WORK/body")
[ -n "$STEADY_JOB" ] || fail "no job id in the steady tenant's submission body"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' \
  -H "Authorization: Bearer steady-key" "$BASE/v1/jobs/$STEADY_JOB")
[ "$CODE" = 200 ] || fail "steady tenant cannot read its own job -> $CODE"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' \
  -H "Authorization: Bearer limited-key" "$BASE/v1/jobs/$STEADY_JOB")
[ "$CODE" = 404 ] || fail "limited tenant read steady's job -> $CODE, want 404"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE \
  -H "Authorization: Bearer limited-key" "$BASE/v1/jobs/$STEADY_JOB")
[ "$CODE" = 404 ] || fail "limited tenant cancelled steady's job -> $CODE, want 404"

echo "smoke-tenants: saturating the queue flips /healthz to the shed tier"
# Queue capacity 4 and one worker busy on real jobs: keep pushing slow
# jobs until the steady tenant itself gets shed/queue-full, then check
# the tier while the backlog is still draining.
for i in $(seq 1 20); do
  CODE=$(post "steady-key" "$(bigspec "$i")")
  [ "$CODE" = 202 ] || break
done
HEALTH=$(curl -fsS "$BASE/healthz")
echo "$HEALTH" | grep -q '"tier":"shedding"' \
  || fail "admission tier not shedding under a saturated queue: $HEALTH"
echo "$HEALTH" | grep -q '"status":"shedding"' \
  || fail "healthz status did not escalate to shedding: $HEALTH"
[ "$CODE" = 429 ] || fail "saturated queue answered $CODE, want 429"
RETRY=$(awk 'tolower($1) == "retry-after:" {print $2+0}' "$WORK/headers")
[ "${RETRY:-0}" -ge 1 ] || fail "capacity 429 carried no Retry-After"

echo "smoke-tenants: per-tenant metrics are exposed"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q 'tenant_requests_total{tenant="limited"}' \
  || fail "no request counter for the limited tenant"
echo "$METRICS" | grep -q 'tenant_requests_total{tenant="steady"}' \
  || fail "no request counter for the steady tenant"
echo "$METRICS" | grep -Eq 'tenant_rejected_total\{[^}]*reason="rate_limited"[^}]*\} [1-9]' \
  || fail "no rate_limited rejection counted"
echo "$METRICS" | grep -q 'tenant_queue_depth{tenant="steady"}' \
  || fail "no queue-depth gauge for the steady tenant"

echo "smoke-tenants: SIGHUP hot-reloads a rotated key"
sed 's/limited-key/rotated-key/' "$WORK/tenants.json" > "$WORK/tenants.json.new"
mv "$WORK/tenants.json.new" "$WORK/tenants.json"
kill -HUP "$SERVER_PID"
# The startup load counts as the first reload, so the SIGHUP's is the
# second.
RELOADS=""
for _ in $(seq 1 50); do
  RELOADS=$(curl -fsS "$BASE/metrics" | sed -n 's/^tenant_keyfile_reloads_total \([0-9]*\)$/\1/p')
  [ "$RELOADS" = 2 ] && break
  sleep 0.1
done
[ "$RELOADS" = 2 ] || fail "tenant_keyfile_reloads_total is '${RELOADS}' after SIGHUP, want 2"
CODE=$(post "limited-key")
[ "$CODE" = 401 ] || fail "old key still works after reload -> $CODE"
# The rotated tenant keeps its drained bucket (429), proving live state
# survived the reload; a fresh bucket would answer 202.
CODE=$(post "rotated-key")
[ "$CODE" = 429 ] || fail "rotated key -> $CODE, want 429 (bucket state must survive reload)"

echo "smoke-tenants: draining"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=""
grep -q "drained, bye" "$WORK/server.log" || fail "server did not drain cleanly"

echo "smoke-tenants: PASS"
