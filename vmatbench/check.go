package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// reference is the in-process result of one request: the rows
// experiments.RunScenario yields for each of its specs, encoded the way
// the server encodes them, and for a sweep the CSV export.
type reference struct {
	Rows [][]experiments.ScenarioRow // one entry per spec (per cell for a sweep)
	JSON json.RawMessage             // a job's rows as JSON
	CSV  []byte                      // a sweep's CSV
}

func jobReference(spec experiments.ScenarioConfig) (reference, error) {
	rows, err := experiments.RunScenario(spec)
	if err != nil {
		return reference{}, err
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		return reference{}, err
	}
	return reference{Rows: [][]experiments.ScenarioRow{rows}, JSON: raw}, nil
}

func sweepReference(g sweep.Grid) (reference, error) {
	cells, err := g.Expand()
	if err != nil {
		return reference{}, err
	}
	ref := reference{}
	results := make([]sweep.CellResult, len(cells))
	for i, c := range cells {
		rows, err := experiments.RunScenario(c.Spec)
		if err != nil {
			return reference{}, err
		}
		results[i] = sweep.CellResult{Index: i, Key: c.Key, Spec: c.Spec, Rows: rows}
		ref.Rows = append(ref.Rows, rows)
	}
	var buf bytes.Buffer
	if err := sweep.WriteCSV(&buf, results); err != nil {
		return reference{}, err
	}
	ref.CSV = buf.Bytes()
	return ref, nil
}

func requestReference(req Request) (reference, error) {
	if req.Grid != nil {
		return sweepReference(*req.Grid)
	}
	return jobReference(*req.Spec)
}

// references computes the references of reqs two at a time, the
// benchmark's CPU budget. It runs outside every timed window.
func references(reqs []Request) ([]reference, error) {
	refs := make([]reference, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = requestReference(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", i, err)
		}
	}
	return refs, nil
}

// matches reports whether an outcome's output equals its reference:
// byte-identical rows for a job, a byte-identical CSV for a sweep.
func matches(o outcome, ref reference) bool {
	if ref.CSV != nil {
		return bytes.Equal(o.CSV, ref.CSV)
	}
	return bytes.Equal(o.Rows, ref.JSON)
}

// simStats sums the simulated statistics of a set of rows: a speed-only
// change leaves every one of them unchanged.
type simStats struct {
	Slots          int64 `json:"slots"`
	PredicateTests int64 `json:"predicate_tests"`
	RevokedKeys    int64 `json:"revoked_keys"`
	TotalBytes     int64 `json:"total_bytes"`
}

func (s *simStats) add(rows []experiments.ScenarioRow) {
	for _, r := range rows {
		s.Slots += int64(r.Slots)
		s.PredicateTests += int64(r.PredicateTests)
		s.RevokedKeys += int64(r.RevokedKeys)
		s.TotalBytes += r.TotalBytes
	}
}

// statsDigest hashes the per-row simulated statistics of the references
// in order.
func statsDigest(refs []reference) string {
	h := sha256.New()
	for i, ref := range refs {
		for j, rows := range ref.Rows {
			for _, r := range rows {
				fmt.Fprintf(h, "%d %d %d %s %d %d %d %d %d\n", i, j, r.Trial, r.Outcome,
					r.Slots, r.PredicateTests, r.RevokedKeys, r.RevokedNodes, r.TotalBytes)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRequests is how many leading timed requests the default-seed
// digest covers; every run completes at least this many.
const digestRequests = minTimedRequests

// digestFile holds the recorded digests: "canary" for the warm-up jobs
// every run executes, and one per workload for its first
// digestRequests requests under the default seed.
const digestFile = "digest.json"

func loadDigests(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
