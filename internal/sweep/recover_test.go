package sweep

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

// TestAttachIdenticalOpenSweep is the regression test for the
// double-enqueue bug: resubmitting a grid whose expansion is identical
// (by content address) to an already-open sweep must return the live
// sweep, not start a second copy of the same work.
func TestAttachIdenticalOpenSweep(t *testing.T) {
	reg := metrics.New()
	svc := service.New(service.Config{Workers: 1, Metrics: reg})
	sm := NewManager(Config{Service: svc, Metrics: reg, MaxInFlight: 1})

	g := Grid{N: []int{40, 50, 60, 70}, Attack: []string{"drop"}, Trials: 8, Seed: 3, Workers: 1}
	sw, err := sm.Submit(g)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// A differently spelled grid with the identical expansion attaches
	// too: attachment keys on the expanded cells, not the spec bytes.
	respelled := g
	respelled.Malicious = []int{1} // "drop" already defaults to 1 attacker
	sw2, err := sm.Submit(respelled)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if sw2 != sw || sw2.ID() != sw.ID() {
		t.Fatalf("identical open grid spawned a second sweep: %s vs %s", sw2.ID(), sw.ID())
	}
	if got := reg.Counter(MetricSweepsAttached).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSweepsAttached, got)
	}
	if got := reg.Counter(MetricSweepsSubmitted).Value(); got != 1 {
		t.Fatalf("attach still counted as a submission: %d", got)
	}

	// A genuinely different grid is its own sweep.
	other := g
	other.Trials = 9
	sw3, err := sm.Submit(other)
	if err != nil {
		t.Fatalf("submit different grid: %v", err)
	}
	if sw3 == sw {
		t.Fatalf("different grid attached to the open sweep")
	}

	for _, s := range []*Sweep{sw, sw3} {
		if _, err := sm.Cancel(s.ID()); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	waitSweep(t, sw)
	waitSweep(t, sw3)

	// Once the sweep is terminal the address is free again: the same
	// grid now starts a fresh sweep (which TestSweepExecutesThenServesFromStore
	// shows is all cache hits when a store is attached).
	sw4, err := sm.Submit(g)
	if err != nil {
		t.Fatalf("post-terminal resubmit: %v", err)
	}
	if sw4 == sw {
		t.Fatalf("terminal sweep still captured the resubmission")
	}
	waitSweep(t, sw4)
	drainAll(t, sm, svc)
}

// TestRecoverResumesInterruptedSweep is the in-process version of the
// tentpole: a sweep interrupted mid-flight (its WAL has sweep-opened
// and some completions, but no sweep-closed) is resumed by a second
// manager incarnation under its original ID, skips every stored cell,
// executes only the remainder, and closes the sweep in the WAL so a
// third incarnation finds nothing to do.
func TestRecoverResumesInterruptedSweep(t *testing.T) {
	dir := t.TempDir()
	g := Grid{N: []int{40, 50, 60, 70}, Attack: []string{"none", "drop"}, Trials: 6, Seed: 11, Workers: 1}

	// Incarnation 1: run until at least one cell executed, then drain —
	// the WAL keeps the sweep open.
	st1, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	wal1, recs, err := store.OpenWAL(dir, store.WALConfig{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	svc1 := service.New(service.Config{Workers: 1, Store: st1})
	sm1 := NewManager(Config{Service: svc1, MaxInFlight: 1, WAL: wal1})
	sw, err := sm1.Submit(g)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	origID := sw.ID()
	deadline := time.Now().Add(60 * time.Second)
	for sw.View(false).Executed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drainAll(t, sm1, svc1)
	waitSweep(t, sw)
	v1 := sw.View(false)
	if v1.Pending == 0 {
		t.Skipf("sweep finished before the drain landed (executed %d); nothing to resume", v1.Executed)
	}
	st1.Close()
	wal1.Close()

	// Incarnation 2: replay, recover, and the sweep finishes by itself.
	reg := metrics.New()
	st2, err := store.Open(dir, store.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	wal2, recs, err := store.OpenWAL(dir, store.WALConfig{Metrics: reg})
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	if len(recs) == 0 {
		t.Fatalf("interrupted sweep left no WAL records")
	}
	svc2 := service.New(service.Config{Workers: 2, Metrics: reg, Store: st2})
	sm2 := NewManager(Config{Service: svc2, Metrics: reg, WAL: wal2, WALRecords: recs})
	if !sm2.RecoveryStatus().Active {
		t.Fatalf("manager with WAL records is not in recovery")
	}

	// Submit must block until recovery finishes, so a racing resubmission
	// cannot duplicate the resuming sweep.
	submitted := make(chan *Sweep, 1)
	go func() {
		s, serr := sm2.Submit(g)
		if serr != nil {
			t.Errorf("racing resubmit: %v", serr)
		}
		submitted <- s
	}()
	select {
	case <-submitted:
		t.Fatalf("Submit returned before Recover ran")
	case <-time.After(50 * time.Millisecond):
	}

	sm2.Recover()
	rs := sm2.RecoveryStatus()
	if rs.Active || rs.ReplayedRecords != int64(len(recs)) || rs.ResumedSweeps != 1 {
		t.Fatalf("recovery status: %+v", rs)
	}
	if rs.ReenqueuedUnits != int64(v1.Pending) {
		t.Fatalf("recovery re-enqueued %d units, incarnation 1 left %d pending", rs.ReenqueuedUnits, v1.Pending)
	}
	if got := reg.Counter(MetricSweepsResumed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSweepsResumed, got)
	}

	rsw, ok := sm2.Get(origID)
	if !ok {
		t.Fatalf("resumed sweep lost its original ID %s", origID)
	}
	// The racing resubmission attached to the resumed sweep.
	if got := <-submitted; got != rsw {
		t.Fatalf("racing resubmission spawned %s instead of attaching to %s", got.ID(), origID)
	}
	waitSweep(t, rsw)
	v2 := rsw.View(false)
	if v2.Status != StatusDone || v2.Cached != v1.Executed || v2.Executed != v1.Pending || v2.Failed != 0 {
		t.Fatalf("resume mismatch: incarnation 1 %+v, resumed %+v", v1, v2)
	}
	// Work already stored was not re-executed: the engine ran exactly
	// one execution per trial per pending cell, none for stored ones.
	if got := reg.Counter(core.MetricExecutions).Value(); got != int64(v1.Pending*g.Trials) {
		t.Fatalf("resumed incarnation ran %d engine executions, want %d (%d pending cells x %d trials)",
			got, v1.Pending*g.Trials, v1.Pending, g.Trials)
	}
	drainAll(t, sm2, svc2)
	st2.Close()
	wal2.Close()

	// Incarnation 3: the run-loop's sweep-closed record means nothing is
	// open anymore — recovery resumes zero sweeps.
	wal3, recs, err := store.OpenWAL(dir, store.WALConfig{})
	if err != nil {
		t.Fatalf("third OpenWAL: %v", err)
	}
	defer wal3.Close()
	svc3 := service.New(service.Config{Workers: 1})
	sm3 := NewManager(Config{Service: svc3, WAL: wal3, WALRecords: recs})
	sm3.Recover()
	if rs := sm3.RecoveryStatus(); rs.ResumedSweeps != 0 || rs.Active {
		t.Fatalf("closed sweep resumed again: %+v", rs)
	}
}

// TestRecoverPreMarksFailedCells: a unit-completed(failed) record in
// the WAL keeps the cell failed across restarts — a poison cell must
// not re-execute on every boot — while preserving its error text.
func TestRecoverPreMarksFailedCells(t *testing.T) {
	g := smallGrid()
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	raw, _ := json.Marshal(g)
	// The unit-enqueued records stand for a log written by an earlier
	// build, which appended them per cell and per cluster unit (with no
	// sweep); recovery must skip them.
	recs := []store.WALRecord{
		{Kind: store.RecSweepOpened, Sweep: "s000007", Grid: raw},
		{Kind: store.RecUnitEnqueued, Sweep: "s000007", Key: cells[0].Key},
		{Kind: store.RecUnitCompleted, Sweep: "s000007", Key: cells[0].Key, Source: SourceFailed, Error: "boom before restart"},
		{Kind: store.RecUnitEnqueued, Key: "cluster-unit"},
	}

	reg := metrics.New()
	svc := service.New(service.Config{Workers: 2, Metrics: reg})
	sm := NewManager(Config{Service: svc, Metrics: reg, WALRecords: recs})
	sm.Recover()
	sw, ok := sm.Get("s000007")
	if !ok {
		t.Fatalf("hand-written sweep not resumed")
	}
	waitSweep(t, sw)
	v := sw.View(true)
	if v.Failed != 1 || v.Executed != len(cells)-1 {
		t.Fatalf("resumed sweep: %+v", v)
	}
	if r := v.Results[0]; r.Source != SourceFailed || r.Error != "boom before restart" {
		t.Fatalf("poison cell lost its verdict: %+v", r)
	}
	// Recovered IDs push the allocator forward: no recycled IDs.
	sw2, err := sm.Submit(Grid{N: []int{20}, Trials: 1, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatalf("Submit after recovery: %v", err)
	}
	if sw2.ID() <= "s000007" {
		t.Fatalf("fresh sweep ID %s not past recovered s000007", sw2.ID())
	}
	waitSweep(t, sw2)
	drainAll(t, sm, svc)
}

// TestRecoverFailsCellsNowInvalid: a sweep accepted before a validation
// rule existed resumes with the cells that rule rejects failed and the
// rest run — here an n=60 grid cell, which an 8×8 grid cannot hold.
func TestRecoverFailsCellsNowInvalid(t *testing.T) {
	g := Grid{N: []int{56, 60}, Topology: []string{"grid"}, Trials: 1, Seed: 3, Workers: 1}
	if _, err := g.Expand(); err == nil {
		t.Fatalf("grid with an n=60 grid cell expanded cleanly")
	}
	cells, err := g.expand(func(int, Cell, error) error { return nil })
	if err != nil || len(cells) != 2 {
		t.Fatalf("lenient expand = (%d cells, %v), want 2", len(cells), err)
	}
	raw, _ := json.Marshal(g)
	recs := []store.WALRecord{
		{Kind: store.RecSweepOpened, Sweep: "s000009", Grid: raw},
	}

	reg := metrics.New()
	svc := service.New(service.Config{Workers: 1, Metrics: reg})
	dir := t.TempDir()
	wal, _, err := store.OpenWAL(dir, store.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sm := NewManager(Config{Service: svc, Metrics: reg, WAL: wal, WALRecords: recs})
	sm.Recover()
	sw, ok := sm.Get("s000009")
	if !ok {
		t.Fatalf("sweep holding a now-invalid cell was not resumed")
	}
	waitSweep(t, sw)
	v := sw.View(true)
	if v.Executed != 1 || v.Failed != 1 {
		t.Fatalf("resumed sweep: %+v", v)
	}
	if r := v.Results[1]; r.Source != SourceFailed || !strings.Contains(r.Error, "grid cannot hold n 60") {
		t.Fatalf("n=60 grid cell: %+v", r)
	}
	drainAll(t, sm, svc)
	wal.Close()

	// The failure is in the compacted WAL, so the next restart keeps it.
	wal2, recs2, err := store.OpenWAL(dir, store.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	var kept bool
	for _, r := range recs2 {
		kept = kept || (r.Kind == store.RecUnitCompleted && r.Key == cells[1].Key && r.Source == SourceFailed)
	}
	if !kept {
		t.Fatalf("compacted WAL lost the n=60 cell's failure: %+v", recs2)
	}
}

// TestRecoverReadsEachStoredCellOnce: counting a resumed sweep's
// pending cells must not read the store's records; the run loop reads
// each stored cell once, as its cache hit.
func TestRecoverReadsEachStoredCellOnce(t *testing.T) {
	g := Grid{N: []int{40, 50, 60}, Trials: 2, Seed: 5}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	st, err := store.Open(t.TempDir(), store.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range cells {
		rows, err := experiments.RunScenario(c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutScenario(c.Spec, rows, store.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	raw, _ := json.Marshal(g)
	recs := []store.WALRecord{{Kind: store.RecSweepOpened, Sweep: "s000001", Grid: raw}}
	svc := service.New(service.Config{Workers: 1, Metrics: reg, Store: st})
	sm := NewManager(Config{Service: svc, Metrics: reg, WALRecords: recs})
	sm.Recover()
	sw, ok := sm.Get("s000001")
	if !ok {
		t.Fatal("stored sweep not resumed")
	}
	waitSweep(t, sw)
	if v := sw.View(false); v.Cached != len(cells) {
		t.Fatalf("resumed sweep: %+v, want all %d cells cached", v, len(cells))
	}
	for name, want := range map[string]int64{
		store.MetricHits:         int64(len(cells)),
		MetricRecoveryReenqueued: 0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	drainAll(t, sm, svc)
}
