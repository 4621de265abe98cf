// Package shard splits a scenario into per-trial-range work units and
// reassembles their results. It is the planning half of the sharded
// execution fabric: internal/cluster leases the descriptors this
// package plans, internal/wire carries them (a grant is a JSON array of
// descriptors, codec.go), and the Merger puts the completed rows back
// together in trial order at the coordinator.
//
// The split is safe because the trial runner derives one random stream
// per trial from the seed alone (see experiments.RunTrialRange): trials
// [start, end) executed on another machine produce rows bit-identical
// to the same slice of a single-box run, so concatenating shard rows in
// range order preserves the repository's bit-identical-CSV guarantee.
// A trial range is the only unit shape: a scenario that is not split is
// the single range [0, Trials). Each unit carries its own content
// address derived from the parent scenario's store key plus the trial
// range, which the completing worker echoes, but only the fully
// assembled scenario is written to the store, under the parent key.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
)

// Descriptor identifies one leased unit of work: a fully normalized
// scenario spec, the half-open trial range [Start, End) this unit
// covers, and the parent scenario's content address.
type Descriptor struct {
	ID     string                     `json:"id"`
	Key    string                     `json:"key"`
	Parent string                     `json:"parent"`
	Start  int                        `json:"start"`
	End    int                        `json:"end"`
	Spec   experiments.ScenarioConfig `json:"spec"`
}

// Run executes the descriptor's trial range.
func (d *Descriptor) Run() ([]experiments.ScenarioRow, error) {
	return experiments.RunScenarioRange(d.Spec, d.Start, d.End)
}

// Key derives a shard's content address from its parent scenario's
// address and the trial range. Workers echo it on completion so the
// coordinator can tell a shard result apart from any other unit's
// payload without trusting the reporter.
func Key(parent string, start, end int) string {
	h := sha256.New()
	h.Write([]byte("shard\x00"))
	h.Write([]byte(parent))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(start))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(end))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Range is a half-open trial interval [Start, End).
type Range struct {
	Start, End int
}

// Plan splits trials into consecutive ranges of at most per trials
// each. When sharding is off (per <= 0) or the scenario fits in one
// shard, the plan is the single range [0, trials).
func Plan(trials, per int) []Range {
	if per <= 0 || trials <= per {
		return []Range{{Start: 0, End: trials}}
	}
	ranges := make([]Range, 0, (trials+per-1)/per)
	for s := 0; s < trials; s += per {
		e := s + per
		if e > trials {
			e = trials
		}
		ranges = append(ranges, Range{Start: s, End: e})
	}
	return ranges
}

// Merger reassembles a scenario from completed shard results. Shards
// may arrive in any order; rows are stitched back in range order, so
// the assembled slice is bit-identical to a single-box run. Add
// validates each shard's rows against its range — a result with the
// wrong row count or wrong trial indices is rejected before it can
// corrupt the assembly. Merger is not safe for concurrent use; the
// coordinator calls it under its own lock.
type Merger struct {
	ranges []Range
	rows   [][]experiments.ScenarioRow
	filled int
}

// NewMerger prepares the assembly for the planned ranges.
func NewMerger(ranges []Range) *Merger {
	return &Merger{ranges: ranges, rows: make([][]experiments.ScenarioRow, len(ranges))}
}

// Shards returns how many shards the merger expects.
func (m *Merger) Shards() int { return len(m.ranges) }

// Add records shard i's rows after validating them against its range.
func (m *Merger) Add(i int, rows []experiments.ScenarioRow) error {
	if i < 0 || i >= len(m.ranges) {
		return fmt.Errorf("shard: index %d out of range (%d shards)", i, len(m.ranges))
	}
	if m.rows[i] != nil {
		return fmt.Errorf("shard: shard %d already merged", i)
	}
	r := m.ranges[i]
	if len(rows) != r.End-r.Start {
		return fmt.Errorf("shard: shard %d covers [%d,%d) but carries %d rows", i, r.Start, r.End, len(rows))
	}
	for j, row := range rows {
		if row.Trial != r.Start+j {
			return fmt.Errorf("shard: shard %d row %d has trial index %d, want %d", i, j, row.Trial, r.Start+j)
		}
	}
	m.rows[i] = rows
	m.filled++
	return nil
}

// Done reports whether every shard has been merged.
func (m *Merger) Done() bool { return m.filled == len(m.ranges) }

// Rows returns the assembled scenario rows in trial order, or nil until
// every shard has arrived.
func (m *Merger) Rows() []experiments.ScenarioRow {
	if !m.Done() {
		return nil
	}
	total := 0
	for _, rs := range m.rows {
		total += len(rs)
	}
	out := make([]experiments.ScenarioRow, 0, total)
	for _, rs := range m.rows {
		out = append(out, rs...)
	}
	return out
}
