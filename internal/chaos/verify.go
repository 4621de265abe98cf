package chaos

import (
	"bytes"
	"fmt"
	"path/filepath"
)

// sweepMaxInFlight mirrors the sweep manager's default MaxInFlight. A
// SIGKILLed server loses at most that many in-flight cells per open
// sweep — work dispatched but not yet journaled as complete — and the
// restarted incarnation legitimately re-executes them. That is the only
// sanctioned duplicate work per kill; everything journaled must come
// back from the store.
const sweepMaxInFlight = 8

// Baseline runs the same grid undisturbed — zero fleet workers, empty
// schedule, fresh data dir — and returns its report. Its CSV is the
// ground truth a chaos run must reproduce bit for bit.
func Baseline(cfg Config) (Report, error) {
	b := cfg
	b.Workers = 0
	b.Schedule = Schedule{Seed: cfg.Schedule.Seed}
	b.DataDir = filepath.Join(cfg.WorkDir, "baseline-data")
	b.WorkDir = filepath.Join(cfg.WorkDir, "baseline")
	return Run(b)
}

// Verify checks the recovery contract a chaos run must uphold against
// its undisturbed baseline:
//
//   - every scheduled event fired — a run that outran its schedule
//     tested less than it claims;
//   - the sweep finished ("done", nothing failed);
//   - the final CSV is bit-identical to the baseline's — faults may
//     change who computed what and when, never the results;
//   - every server kill was recovered by resuming at least one sweep
//     with zero operator action;
//   - nothing completed before a kill was re-executed: the final cached
//     count covers everything done at kill time, and total engine
//     executions (server incarnations + drained fleet) stay under
//     trials x (cells + kills x maxInFlight + 2 x conn-level faults) —
//     cells each run once, each kill may redo one in-flight window, and
//     each severed/stopped/killed worker may lose at most the two units
//     a wire worker holds (one executing, one queued: its fixed prefetch
//     depth) to reassignment.
func Verify(rep, baseline Report, trials int) error {
	if rep.Unfired > 0 {
		return fmt.Errorf("chaos: %d scheduled event(s) never fired: the sweep finished first", rep.Unfired)
	}
	if rep.View.Status != "done" {
		return fmt.Errorf("chaos: sweep ended %q, want done: %+v", rep.View.Status, rep.View)
	}
	if rep.View.Failed != 0 {
		return fmt.Errorf("chaos: %d cell(s) failed: %+v", rep.View.Failed, rep.View)
	}
	if len(baseline.CSV) == 0 {
		return fmt.Errorf("chaos: baseline produced an empty CSV")
	}
	if !bytes.Equal(rep.CSV, baseline.CSV) {
		return fmt.Errorf("chaos: CSV diverged from baseline (%d vs %d bytes)", len(rep.CSV), len(baseline.CSV))
	}
	if rep.ServerKills > 0 {
		if rep.ResumedSweeps < 1 {
			return fmt.Errorf("chaos: %d server kill(s) but no sweep resumed by recovery", rep.ServerKills)
		}
		if rep.View.Cached < rep.DoneBeforeLastKill {
			return fmt.Errorf("chaos: only %d cells cached but %d were done before the last kill — completed work was lost",
				rep.View.Cached, rep.DoneBeforeLastKill)
		}
	}
	measured := rep.ServerExecutions + rep.WorkerExecutions
	if measured <= 0 {
		return fmt.Errorf("chaos: no engine executions observed — the harness is not measuring")
	}
	connFaults := rep.ConnSevers + rep.WorkerStops + rep.WorkerKills
	bound := int64(trials) * int64(rep.View.Cells+rep.ServerKills*sweepMaxInFlight+2*connFaults)
	if measured > bound {
		return fmt.Errorf("chaos: %d engine executions exceed the duplicate-work bound %d (trials %d, cells %d, kills %d, conn faults %d)",
			measured, bound, trials, rep.View.Cells, rep.ServerKills, connFaults)
	}
	return nil
}
