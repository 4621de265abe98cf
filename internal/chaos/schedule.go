// Package chaos is the deterministic crash harness for the control
// plane: it drives REAL vmat-server and vmat-worker processes through a
// seeded schedule of kills, restarts, and connection severs while a
// sweep runs, then verifies the recovery contract — the final sweep CSV
// is bit-identical to an undisturbed run, completed work was never
// re-executed (the engine-execution total stays under a bound derived
// from the schedule), and the server resumed every open sweep with zero
// operator action. The schedule is a pure function of its seed, so a
// failing run is reproducible by number.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Kind is one fault type the harness can inject.
type Kind string

const (
	// KillServer SIGKILLs vmat-server mid-sweep and restarts it on the
	// same address and data dir. The tentpole fault: recovery must
	// resume the sweep unprompted and lose no completed cell.
	KillServer Kind = "kill-server"
	// SeverConns drops every live streaming-transport conn at the proxy,
	// as a middlebox reset would. Workers must reconnect and keep going.
	SeverConns Kind = "sever-conns"
	// StopWorker SIGTERMs one worker: the graceful exit — it finishes
	// its unit, reports, deregisters. The fleet shrinks by one.
	StopWorker Kind = "stop-worker"
	// KillWorker SIGKILLs one worker mid-unit: its lease expires and the
	// unit is reassigned.
	KillWorker Kind = "kill-worker"
)

// Event is one scheduled fault. It fires once the observed sweep has
// After cells done (executed + cached + failed), plus Delay — triggers
// are progress-based, not wall-clock, so the same schedule lands at the
// same sweep phase on fast and slow machines alike.
type Event struct {
	Kind  Kind
	After int // done-cell count that arms this event
	// Worker indexes the target worker for StopWorker/KillWorker.
	Worker int
	// Delay is extra wall time after the trigger arms, for staggering
	// events that share a trigger count.
	Delay time.Duration
}

// Schedule is a reproducible fault plan: the seed that generated it and
// the events in firing order.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Generate builds the schedule for a sweep of `cells` cells against
// `workers` workers: counts[kind] events of each kind, with triggers
// drawn uniformly over [1, cells/2] and worker targets drawn over the
// fleet. A trigger is never before first progress, and it leaves half
// the sweep to run: the harness polls the done count, which can jump by
// up to the fleet's width between polls, and an event whose trigger the
// sweep outran never fires and fails Verify. The same (seed, workers,
// cells, counts) always yields the same schedule — math/rand with a
// fixed source, kinds visited in a fixed order.
func Generate(seed int64, workers, cells int, counts map[Kind]int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}
	span := cells / 2
	if span < 1 {
		span = 1
	}
	for _, k := range []Kind{KillServer, SeverConns, StopWorker, KillWorker} {
		for i := 0; i < counts[k]; i++ {
			ev := Event{Kind: k, After: 1 + rng.Intn(span)}
			if k == StopWorker || k == KillWorker {
				if workers > 0 {
					ev.Worker = rng.Intn(workers)
				}
			}
			s.Events = append(s.Events, ev)
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].After < s.Events[j].After })
	return s
}

// String renders the schedule for logs: "seed 42: kill-server@2,
// sever-conns@4".
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d:", s.Seed)
	if len(s.Events) == 0 {
		b.WriteString(" (no events)")
		return b.String()
	}
	for i, ev := range s.Events {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s@%d", ev.Kind, ev.After)
		if ev.Kind == StopWorker || ev.Kind == KillWorker {
			fmt.Fprintf(&b, "/w%d", ev.Worker)
		}
	}
	return b.String()
}

// Counts tallies the schedule by kind, for bound computations.
func (s Schedule) Counts() map[Kind]int {
	m := map[Kind]int{}
	for _, ev := range s.Events {
		m[ev.Kind]++
	}
	return m
}
