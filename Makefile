GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X main.version=$(VERSION)"

.PHONY: all build test race vet fuzz loc run-server run-worker smoke-cluster smoke-chaos smoke-store smoke-tenants clean

all: build test

# Stamps each binary's `version` via -X so `vmat-* -version` reports the
# commit it was built from.
build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fuzzes every Fuzz* target for 10 s. go test -fuzz takes one target in
# one package per run, so the targets are listed by go test -list rather
# than named here: a new one joins without editing this file.
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg; \
	done

# Prints the production Go line count: every non-test .go file outside
# the benchmark module (vmatbench/) and its build dir (.bench_build/).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './vmatbench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Builds and starts the aggregation service on :8080 (override with
# ADDR=:9090 make run-server). Add CLUSTER=1 to host the distributed
# execution plane for vmat-worker fleets.
ADDR ?= :8080
CLUSTER ?=
run-server:
	$(GO) run $(LDFLAGS) ./cmd/vmat-server -addr $(ADDR) $(if $(CLUSTER),-cluster)

# Starts one worker against a cluster-mode server (override with
# SERVER=http://host:8080 WORKER_NAME=lab-3 make run-worker). A worker
# runs units side by side but never more than GOMAXPROCS trials at once,
# so one per machine is enough, and a second on the same machine adds
# trials beyond its cores. GOMAXPROCS=2 make run-worker caps it at two.
# Go 1.24 sizes GOMAXPROCS from the CPUs it may run on, not from a
# container's cgroup CPU quota, so set it yourself under a quota.
SERVER ?= http://localhost:8080
WORKER_NAME ?= $(shell hostname)-$$$$
run-worker:
	$(GO) run $(LDFLAGS) ./cmd/vmat-worker -server $(SERVER) -name $(WORKER_NAME)

# Two-process smoke test: real vmat-server -cluster and a real
# vmat-worker process, one job dispatched through the fleet, clean
# SIGTERM drains for both. CI runs this against every push.
smoke-cluster: build
	./scripts/smoke-cluster.sh

# Deterministic crash harness: SIGKILLs a real vmat-server mid-sweep
# under a 4-worker fleet, restarts it, and verifies the recovered run's
# CSV is bit-identical to an undisturbed baseline with no stored cell
# re-executed. Seeded — rerun with SEED=n to reproduce a failure.
smoke-chaos: build
	./scripts/chaos-cluster.sh

# Storage-engine soak: a real vmat-server with a tiny segment threshold
# writes enough results to roll several journal segments, gets SIGKILLed
# mid-write, is verified offline with vmat-store, restarted, and every
# key plus a bit-identical CSV export is checked against the pre-kill
# baseline. CI runs this against every push.
smoke-store: build
	./scripts/smoke-store.sh

# Multi-tenant front-door smoke test: a real vmat-server with a keyfile
# of two tenants, one rate-limited into 429 + Retry-After while the
# other keeps submitting, plus 401 for bad keys, shed-tier /healthz,
# per-tenant metrics, and a SIGHUP keyfile hot reload. CI runs this
# against every push.
smoke-tenants: build
	./scripts/smoke-tenants.sh

clean:
	$(GO) clean ./...
