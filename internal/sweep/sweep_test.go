package sweep

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

// smallGrid expands to 4 quick cells: 2 sizes x {none, drop}.
func smallGrid() Grid {
	return Grid{
		N:       []int{20, 30},
		Attack:  []string{"none", "drop"},
		Trials:  2,
		Seed:    7,
		Workers: 2,
	}
}

func waitSweep(t *testing.T, sw *Sweep) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep %s did not finish: %+v", sw.ID(), sw.View(false))
	}
}

func drainAll(t *testing.T, sm *Manager, svc *service.Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sm.Drain(ctx); err != nil {
		t.Fatalf("sweep drain: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("service drain: %v", err)
	}
}

func TestGridExpandCrossProductAndDedup(t *testing.T) {
	g := Grid{
		N:         []int{20, 30},
		Attack:    []string{"none", "drop"},
		Malicious: []int{1, 2},
		Trials:    2,
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Per n: none collapses the malicious dimension to one cell (the
	// duplicate is deduped by content address), drop keeps both counts.
	if len(cells) != 6 {
		t.Fatalf("expanded to %d cells, want 6: %+v", len(cells), cells)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key] {
			t.Fatalf("duplicate cell key %s", c.Key)
		}
		seen[c.Key] = true
		if c.Spec.Attack == "none" && c.Spec.Malicious != 0 {
			t.Fatalf("unnormalized cell: %+v", c.Spec)
		}
	}
}

func TestGridCapEnforced(t *testing.T) {
	g := Grid{
		N:        []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Theta:    make([]int, 30),
		LossRate: make([]float64, 20),
	}
	for i := range g.Theta {
		g.Theta[i] = i + 1
	}
	for i := range g.LossRate {
		g.LossRate[i] = float64(i) / 100
	}
	if _, err := g.Expand(); err == nil {
		t.Fatalf("6000-cell grid passed the default %d cap", DefaultMaxCells)
	}
	g.MaxCells = 6000
	if _, err := g.Expand(); err != nil {
		t.Fatalf("explicit max_cells did not raise the cap: %v", err)
	}
	g.MaxCells = MaxCellsLimit + 1
	if _, err := g.Expand(); err == nil {
		t.Fatalf("max_cells beyond the hard limit accepted")
	}

	bad := Grid{Attack: []string{"frobnicate"}}
	if _, err := bad.Expand(); err == nil {
		t.Fatalf("invalid attack expanded cleanly")
	}
	// One cell whose grid cannot hold its n (60 nodes on an 8×8 grid)
	// fails the whole expansion; the cells that fit expand.
	grid := Grid{N: []int{56, 60, 64}, Topology: []string{"grid"}, Trials: 1}
	if _, err := grid.Expand(); err == nil {
		t.Fatalf("grid holding an n=60 grid cell expanded cleanly")
	}
	grid.N = []int{56, 64}
	if cells, err := grid.Expand(); err != nil || len(cells) != 2 {
		t.Fatalf("buildable grid cells = (%d, %v), want 2 cells", len(cells), err)
	}
}

// TestSweepExecutesThenServesFromStore runs the same grid twice over
// one store: the first sweep executes every cell, the second must be
// all cache hits with zero additional engine executions.
func TestSweepExecutesThenServesFromStore(t *testing.T) {
	reg := metrics.New()
	st, err := store.Open(t.TempDir(), store.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	svc := service.New(service.Config{Workers: 2, Metrics: reg, Store: st})
	sm := NewManager(Config{Service: svc, Metrics: reg})

	sw, err := sm.Submit(smallGrid())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitSweep(t, sw)
	v := sw.View(true)
	if v.Status != StatusDone || v.Executed != v.Cells || v.Cached != 0 || v.Failed != 0 {
		t.Fatalf("first sweep: %+v", v)
	}
	for _, c := range v.Results {
		if len(c.Rows) != 2 || c.Source != SourceExecuted {
			t.Fatalf("cell %d: source %q rows %d", c.Index, c.Source, len(c.Rows))
		}
	}
	execs := reg.Counter(core.MetricExecutions).Value()

	sw2, err := sm.Submit(smallGrid())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitSweep(t, sw2)
	v2 := sw2.View(true)
	if v2.Status != StatusDone || v2.Cached != v2.Cells || v2.Executed != 0 {
		t.Fatalf("second sweep not fully cached: %+v", v2)
	}
	if got := reg.Counter(core.MetricExecutions).Value(); got != execs {
		t.Fatalf("cached sweep executed the engine: %d -> %d", execs, got)
	}
	// Cached rows equal executed rows, cell by cell.
	for i := range v.Results {
		if !reflect.DeepEqual(v.Results[i].Rows, v2.Results[i].Rows) {
			t.Fatalf("cell %d rows differ between executed and cached sweep", i)
		}
	}
	drainAll(t, sm, svc)
}

// failCell is a service.Executor that fails the one cell with this
// content address and hands every other cell back to the local pool.
type failCell string

func (key failCell) Execute(_ context.Context, cfg experiments.ScenarioConfig) ([]experiments.ScenarioRow, bool, error) {
	if k, _ := store.ScenarioKey(cfg); k == string(key) {
		return nil, true, errors.New("synthetic cell failure")
	}
	return nil, false, nil
}

// TestSweepWALHoldsOnlyRecordsRecoveryReads: a sweep appends the
// records recovery acts on and nothing else — sweep-opened and
// sweep-closed, plus one unit-completed record per failed cell. An
// executed cell is proven by the result store, not the log.
func TestSweepWALHoldsOnlyRecordsRecoveryReads(t *testing.T) {
	g := smallGrid()
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, tc := range []struct {
		name    string
		fail    failCell
		failed  int
		appends int64
	}{
		{name: "all-executed", appends: 2},
		{name: "one-failed", fail: failCell(cells[1].Key), failed: 1, appends: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			wal, _, err := store.OpenWAL(t.TempDir(), store.WALConfig{Metrics: reg})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			defer wal.Close()
			svc := service.New(service.Config{Workers: 2, Cluster: tc.fail})
			sm := NewManager(Config{Service: svc, WAL: wal})
			sw, err := sm.Submit(g)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			waitSweep(t, sw)
			if v := sw.View(false); v.Status != StatusDone || v.Failed != tc.failed || v.Executed != len(cells)-tc.failed {
				t.Fatalf("sweep: %+v", v)
			}
			if got := reg.Counter(store.MetricWALAppends).Value(); got != tc.appends {
				t.Fatalf("%s = %d, want %d", store.MetricWALAppends, got, tc.appends)
			}
			drainAll(t, sm, svc)
		})
	}
}

// TestSweepResumeAcrossRestart simulates the restart path: a first
// process completes a sub-grid and shuts down; a second process (new
// store handle replaying the journal, new managers) sweeps a superset
// grid and must only execute the new cells.
func TestSweepResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	svc1 := service.New(service.Config{Workers: 2, Store: st1})
	sm1 := NewManager(Config{Service: svc1})
	sub := smallGrid()
	sub.N = []int{20} // half of the eventual grid
	sw, err := sm1.Submit(sub)
	if err != nil {
		t.Fatalf("submit sub-grid: %v", err)
	}
	waitSweep(t, sw)
	if v := sw.View(false); v.Executed != 2 {
		t.Fatalf("sub-grid: %+v", v)
	}
	drainAll(t, sm1, svc1)
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// "Restart": everything rebuilt from the journal on disk.
	reg := metrics.New()
	st2, err := store.Open(dir, store.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	svc2 := service.New(service.Config{Workers: 2, Metrics: reg, Store: st2})
	sm2 := NewManager(Config{Service: svc2, Metrics: reg})
	sw2, err := sm2.Submit(smallGrid())
	if err != nil {
		t.Fatalf("submit full grid: %v", err)
	}
	waitSweep(t, sw2)
	v := sw2.View(false)
	if v.Status != StatusDone || v.Cached != 2 || v.Executed != 2 || v.Failed != 0 {
		t.Fatalf("resumed sweep should skip the 2 stored cells and run 2 new ones: %+v", v)
	}
	drainAll(t, sm2, svc2)
}

// TestDrainInterruptsSweep: draining mid-sweep must stop submission,
// record in-flight cells, mark the sweep interrupted, and leave the
// store consistent so a resubmission resumes.
func TestDrainInterruptsSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	svc := service.New(service.Config{Workers: 1, Store: st})
	sm := NewManager(Config{Service: svc, MaxInFlight: 1})

	// Enough moderately sized cells that the sweep is still running
	// when we drain right after the first completions.
	g := Grid{N: []int{40, 50, 60, 70}, Attack: []string{"none", "drop"}, Trials: 6, Seed: 11, Workers: 1}
	sw, err := sm.Submit(g)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sw.View(false).Executed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drainAll(t, sm, svc)
	waitSweep(t, sw)

	v := sw.View(false)
	if v.Status != StatusDone && v.Status != StatusInterrupted {
		t.Fatalf("drained sweep status %s", v.Status)
	}
	if v.Executed+v.Cached+v.Failed+v.Pending != v.Cells {
		t.Fatalf("cell accounting broken: %+v", v)
	}
	if v.Failed != 0 {
		t.Fatalf("drain turned pending cells into failures: %+v", v)
	}
	if st.Len() != v.Executed {
		t.Fatalf("store holds %d cells, sweep executed %d", st.Len(), v.Executed)
	}
	st.Close()

	// Resume after the "restart": only the pending remainder executes.
	st2, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	svc2 := service.New(service.Config{Workers: 2, Store: st2})
	sm2 := NewManager(Config{Service: svc2})
	sw2, err := sm2.Submit(g)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitSweep(t, sw2)
	v2 := sw2.View(false)
	if v2.Status != StatusDone || v2.Cached != v.Executed || v2.Executed != v.Cells-v.Executed {
		t.Fatalf("resume mismatch: first run executed %d/%d, second run %+v", v.Executed, v.Cells, v2)
	}
	drainAll(t, sm2, svc2)
}

func TestCancelStopsSubmission(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	sm := NewManager(Config{Service: svc, MaxInFlight: 1})
	g := Grid{N: []int{40, 50, 60, 70}, Attack: []string{"drop"}, Trials: 8, Seed: 3, Workers: 1}
	sw, err := sm.Submit(g)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := sm.Cancel(sw.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitSweep(t, sw)
	if got := sw.Status(); got != StatusCancelled && got != StatusDone {
		t.Fatalf("cancelled sweep status %s", got)
	}
	if _, err := sm.Cancel("s999999"); err == nil {
		t.Fatalf("cancelling an unknown sweep succeeded")
	}
	drainAll(t, sm, svc)
}
