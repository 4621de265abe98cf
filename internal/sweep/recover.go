package sweep

// Startup crash recovery: replaying the control-plane WAL rebuilds the
// sweeps that were open when the previous server incarnation died and
// resumes them with zero operator action. The result journal (replayed
// separately by store.Open) is the authority on completed work; the WAL
// is the authority on promises — which sweeps were accepted and which
// of their cells were still owed. Recovery joins the two: cells the
// store already holds are served as cache hits, cells that failed
// before the crash stay failed (one poison cell must not become an
// infinite loop of restarts re-executing it), and everything else is
// re-enqueued through the normal run loop.

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/store"
)

// walTrail is one sweep's reduction of the replayed WAL: the grid it
// was opened with and the cells that failed before the crash.
type walTrail struct {
	id     string
	grid   json.RawMessage
	closed bool
	failed map[string]string // key -> error for failed completions
}

// parseSweepID inverts the "s%06d" ID format so recovery can advance
// the allocator past every recovered ID (a fresh submission must never
// collide with a sweep a client is still polling).
func parseSweepID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Recover replays Config.WALRecords, re-registers every sweep that was
// open at the last shutdown under its original ID, compacts the WAL
// down to the still-live records, and launches the resumed run loops.
// It must be called exactly once, after construction, whenever
// WALRecords is non-empty (NewManager arms the Submit gate on that
// condition); it is safe — a no-op — otherwise. Callers normally run it
// in a goroutine once the listener is up: /healthz reports "degraded"
// with a recovery section while it works, and Submit blocks until it
// finishes so an eager resubmission cannot race a resuming sweep into a
// duplicate.
func (m *Manager) Recover() {
	recs := m.cfg.WALRecords
	if len(recs) == 0 {
		return
	}
	start := time.Now()
	defer func() {
		wall := time.Since(start).Microseconds()
		m.reg.Gauge(MetricRecoveryWallTime).Set(wall)
		m.recMu.Lock()
		m.rec.Active = false
		m.rec.WallTimeMicros = wall
		m.recMu.Unlock()
		close(m.recoveryDone)
	}()

	m.reg.Counter(MetricRecoveryReplayed).Add(int64(len(recs)))
	m.recMu.Lock()
	m.rec.ReplayedRecords = int64(len(recs))
	m.recMu.Unlock()

	// First pass: reduce the flat log to per-sweep trails. Only three
	// kinds of record change what recovery does: sweep-opened,
	// sweep-closed, and unit-completed with source failed. Logs written
	// by earlier builds also hold unit-enqueued records, executed
	// completions, and cluster records with no sweep; they are skipped.
	trails := map[string]*walTrail{}
	var order []string
	for _, r := range recs {
		if r.Sweep == "" {
			continue
		}
		t := trails[r.Sweep]
		if t == nil {
			t = &walTrail{id: r.Sweep, failed: map[string]string{}}
			trails[r.Sweep] = t
			order = append(order, r.Sweep)
		}
		switch r.Kind {
		case store.RecSweepOpened:
			t.grid = r.Grid
		case store.RecUnitCompleted:
			if r.Source == SourceFailed {
				msg := r.Error
				if msg == "" {
					msg = "failed before restart"
				}
				t.failed[r.Key] = msg
			}
		case store.RecSweepClosed:
			t.closed = true
		}
	}

	// Advance the ID allocator past every sweep the log has ever named,
	// open or closed: a client may still be polling a closed ID, and a
	// fresh submission must not be handed a recycled one.
	m.mu.Lock()
	for id := range trails {
		if n, ok := parseSweepID(id); ok && n > m.nextID {
			m.nextID = n
		}
	}
	m.mu.Unlock()

	// Second pass: adopt every open sweep. The keep list is the compacted
	// WAL — opened records plus failed completions for sweeps still live;
	// closed sweeps and satisfied unit records stop being replayed on
	// every future startup.
	type adoption struct {
		sw      *Sweep
		pending int
	}
	var adopted []adoption
	var keep []store.WALRecord
	var reenqueued int64
	for _, id := range order {
		t := trails[id]
		if t.closed {
			continue
		}
		if len(t.grid) == 0 {
			m.log("sweep %s: WAL has unit records but no opened record (corrupt prefix?); cannot resume", id)
			continue
		}
		var g Grid
		if err := json.Unmarshal(t.grid, &g); err != nil {
			m.log("sweep %s: stored grid does not decode (%v); cannot resume", id, err)
			continue
		}
		// A cell that rules added since the sweep was accepted now reject
		// (a grid that cannot hold its n, say) fails as its run would
		// have; the rest of the sweep resumes.
		cells, err := g.expand(func(_ int, c Cell, err error) error {
			if _, ok := t.failed[c.Key]; !ok {
				t.failed[c.Key] = err.Error()
			}
			return nil
		})
		if err != nil {
			m.log("sweep %s: stored grid does not expand (%v); cannot resume", id, err)
			continue
		}
		// The WAL does not record tenancy, so recovered sweeps run as
		// anonymous: the results land in the shared store either way, and
		// their cells still pay the anonymous rate/quota limits.
		sw := newSweep(m.tenants().Anonymous(), g, cells)
		sw.id = t.id

		// Pre-mark pre-crash failures so the run loop skips them, and
		// classify the rest: cells the store holds resolve as cache hits
		// inside run; everything else re-enqueues. A cell in flight at the
		// kill is not in the store, so it re-runs; idempotent Put makes
		// the duplicate harmless if its first run finished after all.
		a := adoption{sw: sw}
		st := m.cfg.Service.Store()
		for i, c := range cells {
			if msg, ok := t.failed[c.Key]; ok {
				sw.record(i, SourceFailed, nil, msg)
				continue
			}
			if st != nil {
				if _, ok, _ := st.GetScenario(c.Spec); ok {
					continue
				}
			}
			a.pending++
		}

		keep = append(keep, store.WALRecord{Kind: store.RecSweepOpened, Sweep: t.id, Grid: t.grid})
		for _, c := range cells { // deterministic cell order, not map order
			if msg, ok := t.failed[c.Key]; ok {
				keep = append(keep, store.WALRecord{Kind: store.RecUnitCompleted, Sweep: t.id, Key: c.Key, Source: SourceFailed, Error: msg})
			}
		}

		m.mu.Lock()
		m.sweeps[sw.id] = sw
		m.open[sw.gridKey] = sw
		m.wg.Add(1)
		draining := m.draining
		m.mu.Unlock()
		if draining {
			sw.stop(StatusInterrupted, "server draining; the sweep resumes automatically on restart")
		}
		m.active.Inc()
		reenqueued += int64(a.pending)
		adopted = append(adopted, a)
	}

	// Compact before launching the resumed run loops: their fresh appends
	// must land after the rewritten prefix, not interleave with records
	// the rewrite is about to drop.
	if m.cfg.WAL != nil {
		if err := m.cfg.WAL.Compact(keep); err != nil {
			m.log("sweep: control WAL compaction failed (recovery continues on the uncompacted log): %v", err)
		}
	}

	m.reg.Counter(MetricSweepsResumed).Add(int64(len(adopted)))
	m.reg.Counter(MetricRecoveryReenqueued).Add(reenqueued)
	m.recMu.Lock()
	m.rec.ResumedSweeps = int64(len(adopted))
	m.rec.ReenqueuedUnits = reenqueued
	m.recMu.Unlock()

	for _, a := range adopted {
		m.log("sweep %s: resumed from control WAL (%d of %d cells pending, %d failed before the crash)",
			a.sw.id, a.pending, len(a.sw.cells), a.sw.failedCount())
		go m.run(a.sw)
	}
	m.log("sweep: recovery replayed %d WAL records, resumed %d sweep(s), re-enqueued %d unit(s) in %s",
		len(recs), len(adopted), reenqueued, time.Since(start).Round(time.Millisecond))
}

// failedCount reads the failed tally under the sweep lock.
func (s *Sweep) failedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}
