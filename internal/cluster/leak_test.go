package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestWorkerReconnectLeaksNoGoroutines is the regression test for the
// reconnect path's goroutine hygiene: every wire session spawns a
// reader and a goroutine per unit, and a worker that survives repeated
// coordinator restarts must shed them all with each dead session. After
// several kill/restart cycles and a graceful drain, the process must
// settle back to its pre-test goroutine count — a leak of even one
// goroutine per session compounds forever in a long-lived fleet
// riding out a flapping control plane.
func TestWorkerReconnectLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated restart cycles are slow; skipped in -short")
	}
	settle := func() int {
		// Two GC cycles give exiting goroutines time to be reaped before
		// the count is read.
		runtime.GC()
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	baseline := settle()

	const restarts = 4
	stack := startStack(t, "127.0.0.1:0", metrics.New())
	w := NewWorker(WorkerConfig{
		Server: "http://" + stack.addr, Name: "leakcheck",
		Reconnect: fastReconnect(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, stack.c, 1)
	waitWired(t, stack.c, 1)

	for i := 0; i < restarts; i++ {
		stack.kill()
		time.Sleep(20 * time.Millisecond) // let the worker's dials bounce
		stack = startStack(t, stack.addr, metrics.New())
		waitConnected(t, stack.c, 1)
		waitWired(t, stack.c, 1)
		// Each incarnation gets real work, so the sessions being leaked
		// (or not) are sessions that actually executed units.
		if _, ok, err := stack.c.Execute(context.Background(), testSpec(uint64(80+i))); !ok || err != nil {
			t.Fatalf("Execute after restart %d = (ok=%v, err=%v)", i+1, ok, err)
		}
	}
	if got := w.Reconnects(); got < restarts {
		t.Fatalf("worker reports %d reconnects across %d restarts", got, restarts)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run after drain: %v", err)
	}
	stack.kill()

	// Dead sessions unwind asynchronously; poll for the count to settle.
	deadline := time.Now().Add(10 * time.Second)
	slack := 3 // test runtime background goroutines fluctuate a little
	for {
		if n := settle(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.NumGoroutine()
			t.Fatalf("goroutines leaked across %d reconnects: baseline %d, now %d\n%s",
				restarts, baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
