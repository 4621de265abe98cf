// Command vmat-server serves VMAT aggregation as a service: scenario
// jobs are submitted over HTTP, run on a bounded worker pool through the
// same deterministic trial-runner as the CLIs, and their results,
// traces, and metrics are retrievable while the server runs.
//
// Usage:
//
//	vmat-server -addr :8080 -queue 64 -workers 4 -data-dir /var/lib/vmat
//
// API:
//
//	POST   /v1/jobs                 submit a scenario spec (429 when the queue is full)
//	GET    /v1/jobs/{id}            status + result rows
//	GET    /v1/jobs/{id}/trace      NDJSON stream of engine events
//	DELETE /v1/jobs/{id}            cancel
//	POST   /v1/sweeps               submit a parameter grid (cross product of cells)
//	GET    /v1/sweeps/{id}          sweep progress (executed/cached/failed/pending)
//	GET    /v1/sweeps/{id}/results  full results; ?format=csv for flat export
//	DELETE /v1/sweeps/{id}          stop a sweep
//	GET    /healthz                 liveness + version + drain state
//	GET    /metrics                 text metrics exposition
//
// With -data-dir, completed results persist in a content-addressed
// store: identical resubmissions (jobs or sweep cells) are served from
// disk without re-execution, across restarts. The same directory holds
// a control-plane write-ahead log, making the server crash-tolerant: a
// kill -9 mid-sweep loses no completed cell, and the next start replays
// the log, skips everything already stored, and resumes every open
// sweep automatically — no operator resubmission, same sweep IDs.
// /healthz reports "degraded" with a recovery section while the replay
// rebuilds state.
//
// With -cluster, the server additionally hosts the distributed
// execution plane: vmat-worker processes register under /v1/cluster,
// which hands them the address of the streaming transport (-wire-addr),
// then claim work units via time-bounded leases over one persistent
// binary conn each and execute jobs and sweep cells remotely.
// -shard-trials N splits each scenario into trial-range units so a
// single large job spreads across the whole fleet. Zero connected
// workers (or a crashed one whose lease retry budget runs out, or a
// fleet that emptied and stayed empty) degrades to the local pool —
// cluster mode can never strand work — and /healthz grows a "workers"
// section that reports "degraded" while the fleet is empty.
//
// With -tenants, the server runs its multi-tenant front door: clients
// authenticate with `Authorization: Bearer <key>` against a JSON
// keyfile, each tenant gets a submissions/sec token bucket and queue /
// sweep-cell quotas, and the job queue becomes a weighted fair queue
// (deficit round robin over per-tenant FIFOs) so no tenant starves the
// rest. Capacity rejections are 429 with an honest Retry-After;
// /healthz escalates ok -> degraded -> shedding as pressure builds.
// SIGHUP reloads the keyfile without dropping live rate-limit state.
//
// On SIGTERM/SIGINT the server drains gracefully: it stops leasing
// cluster units and waits for in-flight leases, stops accepting work,
// finishes queued and running jobs, flushes the store, then exits — a
// sweep interrupted by the drain stays open in the WAL and resumes
// automatically on the next start (without -data-dir, resubmitting the
// grid resumes it from scratch).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// version is stamped by the Makefile via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmat-server:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmat-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "bounded job-queue capacity (submissions beyond it get 429)")
	workers := fs.Int("workers", 0, "concurrent job executors (0 = all cores)")
	retain := fs.Int("retain", 128, "completed jobs kept retrievable before eviction")
	jobTimeout := fs.Duration("job-timeout", 15*time.Minute, "per-job execution deadline (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Minute, "max time to finish in-flight jobs on shutdown")
	dataDir := fs.String("data-dir", "", "persist results in a content-addressed store under this directory (empty = no persistence)")
	storeSegmentBytes := fs.Int64("store-segment-bytes", 64<<20, "size at which the store's active journal segment is sealed and a new one started")
	storeSnapshotInterval := fs.Duration("store-compact-interval", time.Minute, "background store maintenance period: refresh the snapshot-age gauge and write an index snapshot once 4096 results were stored since the last (0 = disabled; the store no longer compacts, the name is kept for existing deployments)")
	clusterOn := fs.Bool("cluster", false, "host the distributed execution plane (vmat-worker fleet) under /v1/cluster")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "cluster lease lifetime without a heartbeat before a unit is reassigned")
	leaseRetries := fs.Int("lease-retries", 3, "leases one unit may consume before falling back to local execution")
	shardTrials := fs.Int("shard-trials", 0, "split cluster scenarios into work units of at most this many trials (0 = one unit per scenario)")
	wireAddr := fs.String("wire-addr", ":8081", "streaming-transport listen address for cluster workers (required with -cluster)")
	wireAdvertise := fs.String("wire-advertise", "", "streaming-transport address advertised to workers instead of the bound one (for proxies/NAT; empty = advertise the listener)")
	tenantsPath := fs.String("tenants", "", "JSON keyfile enabling the multi-tenant front door: API keys, per-tenant rate limits/quotas, fair-queue weights (empty = open server, everything runs as the anonymous tenant; SIGHUP reloads the file)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, "vmat-server", version)
		return nil
	}
	if *clusterOn && *wireAddr == "" {
		return errors.New("-cluster needs a -wire-addr: workers get their units over the streaming transport")
	}
	// The listener, the coordinator, the store and the sweeps all log at
	// once; one write at a time.
	w = &lockedWriter{w: w}

	reg := metrics.New()
	logf := func(format string, args ...any) {
		fmt.Fprintf(w, "vmat-server: "+format+"\n", args...)
	}
	var st *store.Store
	var wal *store.WAL
	var walRecords []store.WALRecord
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Config{
			Metrics:          reg,
			Log:              logf,
			SegmentBytes:     *storeSegmentBytes,
			SnapshotInterval: *storeSnapshotInterval,
		})
		if err != nil {
			return fmt.Errorf("open result store: %w", err)
		}
		defer func() {
			if st != nil {
				st.Close()
			}
		}()
		sst := st.Status()
		logf("result store at %s (%d entries, %d segments)", *dataDir, st.Len(), sst.Segments)
		// The control-plane WAL rides in the same directory: results are
		// the journal's business, promises (open sweeps, failed cells)
		// are the WAL's. Replaying both is what makes a kill -9 lose no
		// completed work and resume every open sweep unprompted.
		wal, walRecords, err = store.OpenWAL(*dataDir, store.WALConfig{Metrics: reg, Log: logf})
		if err != nil {
			return fmt.Errorf("open control WAL: %w", err)
		}
		defer func() {
			if wal != nil {
				wal.Close()
			}
		}()
		if len(walRecords) > 0 {
			logf("control WAL holds %d records; recovery will resume open sweeps", len(walRecords))
		}
	}
	var coord *cluster.Coordinator
	var workersRep service.WorkersReporter
	var exec service.Executor
	if *clusterOn {
		coord = cluster.NewCoordinator(cluster.CoordinatorConfig{
			LeaseTTL:      *leaseTTL,
			MaxAttempts:   *leaseRetries,
			ShardTrials:   *shardTrials,
			Metrics:       reg,
			Log:           logf,
			WireAdvertise: *wireAdvertise,
		})
		defer coord.Close()
		workersRep, exec = coord, coord
		logf("cluster mode on: workers register under /v1/cluster (lease TTL %s, %d attempts per unit, shard %d trials)",
			*leaseTTL, *leaseRetries, *shardTrials)
		bound, err := coord.StartWire(*wireAddr)
		if err != nil {
			return err
		}
		logf("cluster streaming transport on %s", bound)
	}
	ctl, err := tenant.NewController(tenant.Config{Path: *tenantsPath, Metrics: reg, Log: logf})
	if err != nil {
		return fmt.Errorf("load tenant keyfile: %w", err)
	}
	if *tenantsPath != "" {
		logf("multi-tenant front door on: %d keyed tenant(s) from %s", ctl.Len(), *tenantsPath)
		// SIGHUP reloads the keyfile in place: new keys/limits apply
		// immediately, live state (bucket balances, in-flight counts)
		// survives, and a broken file is rejected without locking anyone
		// out.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := ctl.Reload(); err != nil {
					logf("tenant keyfile reload failed (keeping previous set): %v", err)
				}
			}
		}()
	}
	mgr := service.New(service.Config{
		QueueSize:  *queue,
		Workers:    *workers,
		Retain:     *retain,
		JobTimeout: *jobTimeout,
		Metrics:    reg,
		Store:      st,
		Version:    version,
		Cluster:    exec,
		Tenants:    ctl,
	})
	swm := sweep.NewManager(sweep.Config{
		Service:    mgr,
		Metrics:    reg,
		Log:        logf,
		WAL:        wal,
		WALRecords: walRecords,
	})
	// Root mux: the job API owns "/", sweep routes are more specific and
	// win for /v1/sweeps*.
	root := http.NewServeMux()
	root.Handle("/", service.NewHandler(mgr, version, workersRep, swm))
	sweep.Register(root, swm)
	if coord != nil {
		cluster.RegisterHTTP(root, coord)
	}
	// WriteTimeout stays 0: /v1/jobs/{id}/trace streams NDJSON for as
	// long as the job runs. Header-read and idle timeouts still bound
	// slow or stalled clients so they cannot pin connections forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(w, "vmat-server %s listening on %s (queue %d, workers %d)\n",
			version, *addr, *queue, *workers)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	// Recovery runs beside the listener, not before it: the server
	// answers /healthz ("degraded", with a recovery section) while open
	// sweeps are rebuilt, workers re-register in the meantime, and
	// submissions block until the rebuild is done so a racing
	// resubmission cannot duplicate a resuming sweep.
	go swm.Recover()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections and jobs, finish what
	// is queued and running, then exit. The metrics registry is served
	// until the very end, so a final scrape sees queue depth 0.
	fmt.Fprintln(w, "vmat-server: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// The cluster first: stop leasing, hand pending units back to the
	// local pool, and wait for workers to report their in-flight leases
	// (the wire transport is still up for those completions). Then
	// sweeps (they stop feeding the job manager and flush the store),
	// then the job manager, then the listener.
	if coord != nil {
		if err := coord.Drain(drainCtx); err != nil {
			return fmt.Errorf("drain cluster: %w", err)
		}
	}
	if err := swm.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain sweeps: %w", err)
	}
	if err := mgr.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			return fmt.Errorf("close control WAL: %w", err)
		}
		wal = nil // defer-close already done
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		st = nil // defer-close already done
	}
	fmt.Fprintln(w, "vmat-server: drained, bye")
	return <-errCh
}

// lockedWriter serializes writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
