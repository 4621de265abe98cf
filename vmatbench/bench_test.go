package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

func streamBytes(t *testing.T, workload string, seed uint64, n int) []byte {
	t.Helper()
	g, err := NewGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range g.WarmUp() {
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		b.Write(g.Request(i).Body)
		b.WriteByte('\n')
		b.Write(g.Request(pairBase + i).Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 5, 300), streamBytes(t, w, 5, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 gave two different request streams", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 6, 300)) {
			t.Errorf("%s: seeds 5 and 6 gave the same request stream", w)
		}
	}
}

func specKey(t *testing.T, r Request) []string {
	t.Helper()
	if r.Grid != nil {
		cells, err := r.Grid.Expand()
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Key
		}
		return keys
	}
	k, err := store.ScenarioKey(*r.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return []string{k}
}

// Cold-mix and fleet-sweep requests must miss the store: their keys
// never collide with each other, with the warm-hits hot set, or with
// any warm-up request, for any of a few seeds.
func TestColdKeysNeverCollideWithWarmKeys(t *testing.T) {
	warm := map[string]string{}
	for seed := uint64(1); seed <= 3; seed++ {
		g, _ := NewGenerator(WarmHits, seed)
		for _, r := range g.WarmUp() {
			for _, k := range specKey(t, r) {
				warm[k] = "warm-up"
			}
		}
	}
	if want := canaryJobs + 3*hotSetSize; len(warm) != want {
		t.Fatalf("%d distinct warm-up keys, want %d", len(warm), want)
	}
	for _, w := range []string{ColdMix, FleetSweep} {
		for seed := uint64(1); seed <= 3; seed++ {
			g, _ := NewGenerator(w, seed)
			seen := map[string]bool{}
			for i := 0; i < 400; i++ {
				for _, idx := range []int{i, pairBase + i} {
					for _, k := range specKey(t, g.Request(idx)) {
						if warm[k] != "" {
							t.Fatalf("%s seed %d request %d collides with a warm-up key", w, seed, idx)
						}
						if seen[k] {
							t.Fatalf("%s seed %d request %d repeats a key", w, seed, idx)
						}
						seen[k] = true
					}
				}
			}
		}
	}
}

// Every request draws a hot-set member, and both halves of the hot set
// (cached and evicted after the warm-up) get drawn.
func TestWarmHitsDrawsFromWholeHotSet(t *testing.T) {
	g, _ := NewGenerator(WarmHits, 1)
	seen := map[int]bool{}
	for i := 0; i < 20000; i++ {
		r := g.Request(i)
		if r.Hot < 0 || r.Hot >= hotSetSize {
			t.Fatalf("hot draw %d out of range", r.Hot)
		}
		seen[r.Hot] = true
	}
	if len(seen) < hotSetSize*9/10 {
		t.Fatalf("20000 draws reached only %d of %d hot specs", len(seen), hotSetSize)
	}
}

func TestPercentileRefusesP90BelowHundredSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err %v, want errTooFewSamples", err)
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 90)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", p90)
	}
	if _, err := percentile(xs[:19], 50); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p50 of 19 samples: err %v, want errTooFewSamples", err)
	}
	if p50, err := percentile(xs[:20], 50); err != nil || p50 != 10.5 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", p50, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark contract uses for its spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimesWithNestedChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 2, Name: "a1", Start: ms(15), End: ms(25)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // ends past root
		{ID: 6, Name: "other root", Start: ms(0), End: ms(5)},
	}
	want := map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(30), 6: ms(5)}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
}

func TestRecorderForkAbsorbKeepsParents(t *testing.T) {
	r := NewRecorder()
	r.Start("open", 0, -1)
	f := r.Fork()
	root := f.Start("request", 0, 7)
	f.End(f.Start("layer", root, 7))
	f.End(root)
	r.Absorb(f)
	spans := r.Spans()
	if len(spans) != 3 || spans[2].Parent != spans[1].ID || spans[1].ID != 2 {
		t.Fatalf("absorbed spans %+v: parent links not renumbered", spans)
	}
}

func TestFailureClassification(t *testing.T) {
	for _, c := range []struct {
		name string
		o    outcome
	}{
		{"429", outcome{HTTPStatus: 429}},
		{"503", outcome{HTTPStatus: 503}},
		{"failed job", outcome{Status: "failed"}},
		{"cancelled job", outcome{Status: "cancelled"}},
		{"interrupted sweep", outcome{Status: "interrupted"}},
		{"timeout", outcome{Status: "done", TimedOut: true}},
		{"mismatch", outcome{Status: "done", Mismatch: true}},
		{"transport error", outcome{Err: errors.New("connection reset")}},
	} {
		if failure(c.o) == "" {
			t.Errorf("%s: classified as success", c.name)
		}
	}
	if f := failure(outcome{Status: "done"}); f != "" {
		t.Errorf("a done, matching request classified as %q", f)
	}
}

func TestParseMetricsSumsLabelledSeries(t *testing.T) {
	text := "# TYPE service_jobs_rejected_total counter\n" +
		"service_jobs_rejected_total{reason=\"queue_full\"} 3\n" +
		"service_jobs_rejected_total{reason=\"rate_limited\"} 2\n" +
		"store_hits_total 41\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["service_jobs_rejected_total"] != 5 || m["store_hits_total"] != 41 {
		t.Fatalf("parsed %v", m)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics vmatbench
// produces.
func TestBenchmarkJSONMatchesMetricDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, vmatbench %v", names, workloads)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		var missing []string
		for n, u := range want {
			if got[n] != u {
				missing = append(missing, n+" ("+u+")")
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				missing = append(missing, "extra "+n)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s metrics differ between BENCHMARK.json and vmatbench: %v", kind, missing)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, perLayerUnits)
}

func TestCompareMedianQuartilesAndPairsWon(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals []float64) string {
		var b strings.Builder
		for i, v := range vals {
			r := result{Workload: ColdMix, Seed: uint64(i + 1),
				Metrics: map[string]metric{"latency_p50_ms": {v, "ms"}, "throughput_per_s": {1000 / v, "1/s"}}}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{10, 11, 12, 13})
	change := write("change.jsonl", []float64{9, 10, 13, 12})
	var out bytes.Buffer
	if err := compare(&out, base, change); err != nil {
		t.Fatal(err)
	}
	// Lower latency wins pairs 1, 2 and 4; higher throughput the same.
	for _, want := range []string{"latency_p50_ms", "11.5000", "3/4", "throughput_per_s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "3/4") != 2 {
		t.Errorf("want both metrics won 3/4:\n%s", out.String())
	}
}

func TestWindowSourceStopsAtDeadlineOnlyAfterMinimum(t *testing.T) {
	g, err := NewGenerator(ColdMix, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := windowSource(g, 90, time.Now().Add(-time.Second), minTimedRequests)
	for k := 0; k < minTimedRequests-90; k++ {
		pos, req, ok := next()
		if !ok || pos != k || !bytes.Equal(req.Body, g.Request(90+k).Body) {
			t.Fatalf("request %d: pos %d ok %v, want the phase's request %d", k, pos, ok, 90+k)
		}
	}
	if _, _, ok := next(); ok {
		t.Fatal("a window past its deadline kept going after the phase reached its minimum")
	}
	if _, _, ok := windowSource(g, 0, time.Now().Add(time.Hour), 0)(); !ok {
		t.Fatal("a window before its deadline handed out nothing")
	}
}

func TestPoolRefsWeighsEveryRequest(t *testing.T) {
	var a, b []float64
	for i := 1; i <= 60; i++ {
		a = append(a, float64(i))
		b = append(b, float64(60+i))
	}
	s, err := poolRefs([]refTime{
		{Elapsed: time.Second, CPU: 0.5, LatencyMS: a},
		{Elapsed: 3 * time.Second, CPU: 1.5, LatencyMS: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 120 requests in 4 s; latencies 1..120 ms.
	if s.Requests != 120 || s.Rate != 30 || s.P50 != 60.5 || math.Abs(s.P90-108.1) > 1e-9 || math.Abs(s.CPU-2.0/120) > 1e-12 {
		t.Fatalf("pooled %+v", s)
	}
	if s, err := poolRefs([]refTime{{Elapsed: time.Second, LatencyMS: a}}); err != nil || s.P90 != 0 || s.Rate != 60 {
		t.Fatalf("60 reference requests: %+v, err %v; want a rate and no p90", s, err)
	}
}

func TestP90ScalesByReferenceP90OnlyWhenPrecise(t *testing.T) {
	nominal := refShape{P50: 10, P90: 20}
	few := refStats{Requests: preciseP90 - 1, P50: 20, P90: 80}
	many := refStats{Requests: preciseP90, P50: 20, P90: 80}
	if got := few.scaleP90(nominal); got != 0.5 {
		t.Errorf("%d reference requests: p90 scale %v, want the median's 0.5", few.Requests, got)
	}
	if got := many.scaleP90(nominal); got != 0.25 {
		t.Errorf("%d reference requests: p90 scale %v, want the p90's 0.25", many.Requests, got)
	}
}

// The reference server must answer the benchmark's own client code as
// vmat-server does, with the output refOutput computes in-process.
func TestReferenceServerSpeaksTheClientProtocol(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "syncs"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(newRefServer(f).handler())
	defer srv.Close()
	c := &client{hc: srv.Client(), base: srv.URL}
	for _, w := range workloads {
		sh := refShapes[w]
		req := refRequest{Seed: 7, Rounds: sh.Rounds, Syncs: sh.Syncs, Async: sh.Async, Serial: sh.Serial}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rows, csv := refOutput(req)
		var o outcome
		want := reference{JSON: rows}
		if sh.Sweep {
			o, want = c.runSweep(context.Background(), Request{Body: body}), reference{CSV: csv}
		} else {
			o = c.runJob(context.Background(), Request{Body: body})
		}
		if f := failure(o); f != "" || !matches(o, want) {
			t.Errorf("%s reference request: failure %q, output matches %v", w, f, matches(o, want))
		}
	}
	if st, err := f.Stat(); err != nil || st.Size() == 0 {
		t.Errorf("reference jobs synced nothing (size %v, err %v)", st.Size(), err)
	}
}
