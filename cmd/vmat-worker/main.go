// Command vmat-worker joins a vmat-server fleet and executes scenario
// work units leased from the coordinator.
//
// Usage:
//
//	vmat-worker -server http://localhost:8080 -name lab-3
//
// The worker registers over HTTP with the coordinator at -server (a
// vmat-server started with -cluster), which hands it the address of its
// streaming transport. The worker opens one persistent binary conn
// there and executes batched unit grants from it — each unit a trial
// range of a scenario, the whole scenario when it is not split —
// streaming each completion back with the unit's content key and a
// CRC32 of the encoded rows so the coordinator can verify the bytes
// before accepting them. It runs units side by side on GOMAXPROCS trial
// slots: each unit takes as many as it runs trials at once (its spec's
// workers, 0 meaning every core), so one-trial shards run one per core,
// an unsplit scenario at workers 0 runs alone, and no more than
// GOMAXPROCS trials ever run at once. It holds one unit queued beyond
// the executing ones. Set GOMAXPROCS to cap it:
// Go 1.24 does not read a container's cgroup CPU quota. A lost conn or
// restarted coordinator is survived in place: the worker reconnects,
// or re-registers, on a jittered backoff, and a completion the lost
// conn could not carry goes out first on the redialled one.
//
// On SIGTERM/SIGINT the worker drains gracefully: it finishes every
// unit it is executing (the coordinator keeps the leases alive via
// heartbeats), reports the results, deregisters — releasing the units
// it had queued — and exits 0. Killing it outright is also safe — the
// leases expire and the coordinator reassigns the units, with
// identical results either way; so is a drain whose conn is down, which
// leaves its unsent results to be recomputed the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
)

// version is stamped by the Makefile via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmat-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmat-worker", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "coordinator base URL (a vmat-server run with -cluster)")
	name := fs.String("name", "", "stable worker name for logs and per-worker metrics (default: coordinator-assigned ID)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, "vmat-worker", version)
		return nil
	}

	// Each unit logs from its own goroutine, beside the session loop;
	// one write at a time.
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(w, "vmat-worker: "+format+"\n", args...)
	}
	reg := metrics.New()
	worker := cluster.NewWorker(cluster.WorkerConfig{
		Server:  *server,
		Name:    *name,
		Version: version,
		Log:     logf,
		Metrics: reg,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logf("%s joining fleet at %s", version, *server)
	if err := worker.Run(ctx); err != nil {
		return err
	}
	// The drain line reports how much engine work this process really
	// performed — the chaos harness sums it across the fleet to bound
	// duplicate execution after coordinator kills.
	logf("engine executions: %d", reg.Counter(core.MetricExecutions).Value())
	logf("bye")
	return nil
}
