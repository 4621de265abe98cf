package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// replayRequests is how many requests the traced run's paired phase
// sends and replays. Warm-hits ops are cheap, so it uses more of them.
var replayRequests = map[string]int{ColdMix: 100, WarmHits: 2000, FleetSweep: 100}

// layerOrder lists the replay's layer spans in the order the server
// reaches them; the attribution table follows it.
var layerOrder = []string{
	"service.spec_decode", "sweep.decode", "tenant.auth", "store.key", "store.get",
	"tenant.admit", "service.submit", "tenant.queue", "sweep.expand", "shard.plan",
	"cluster.codec", "wire.frame", "experiments.trial_setup", "core.announce",
	"core.tree", "core.aggregation", "core.confirmation", "core.pinpoint",
	"experiments.scenario", "shard.merge", "store.put", "store.wal_append",
	"service.view_encode", "sweep.csv",
}

var corePhases = []string{"core.announce", "core.tree", "core.aggregation", "core.confirmation", "core.pinpoint"}

// spanSummary aggregates a replay's spans.
type spanSummary struct {
	perReq   map[int]map[string]time.Duration // self time by request and layer
	self     map[string]time.Duration         // self time by layer
	total    map[string]time.Duration         // duration by layer
	calls    map[string]int
	openTime time.Duration // store.open
}

func summarize(spans []Span) spanSummary {
	self := SelfTimes(spans)
	s := spanSummary{perReq: map[int]map[string]time.Duration{}, self: map[string]time.Duration{},
		total: map[string]time.Duration{}, calls: map[string]int{}}
	for _, sp := range spans {
		if sp.Name == "store.open" {
			s.openTime += sp.End - sp.Start
			continue
		}
		if sp.Name == "request" {
			continue
		}
		if s.perReq[sp.Req] == nil {
			s.perReq[sp.Req] = map[string]time.Duration{}
		}
		s.perReq[sp.Req][sp.Name] += self[sp.ID]
		s.self[sp.Name] += self[sp.ID]
		s.total[sp.Name] += sp.End - sp.Start
		s.calls[sp.Name]++
	}
	// GetScenario computes the key itself; its self time excludes the
	// key, which store.key prices.
	s.self["store.get"] = max(0, s.self["store.get"]-s.self["store.key"])
	for _, m := range s.perReq {
		m["store.get"] = max(0, m["store.get"]-m["store.key"])
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func per(d time.Duration, n int, unit func(time.Duration) float64) float64 {
	if n == 0 {
		return 0
	}
	return unit(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pairBase is the first request index of the paired phase, far above
// any timed request, so its requests are fresh: they miss the store
// wherever the timed phase's would have.
const pairBase = 1 << 19

// pairedRun is the traced run's measurement: fresh requests sent to the
// server and replayed in-process, block by block.
type pairedRun struct {
	reqs    []Request
	outs    []outcome // server outcomes, in reqs order
	rec     *Recorder // spans of the replay with spans on
	on, off time.Duration
}

// pairedPhase alternates, one block of requests at a time, the server
// (untraced, two closed-loop clients) and the in-process replay of the
// same block with spans off and with spans on. Each request's server
// latency and its layer costs are then measured seconds apart, so a
// machine whose speed drifts over minutes does not bias their ratio.
// The replay runs in a child process of its own, whose heap, like the
// server's, holds little beyond the replayed state: in this process's
// larger heap the engine would collect garbage less often than in the
// server's and run faster.
func pairedPhase(ctx context.Context, hc *http.Client, fl *fleet, cfg config, g *Generator, dir, keyfile string) (*pairedRun, error) {
	n := replayRequests[cfg.Workload]
	block := n / 10
	pr := &pairedRun{rec: NewRecorder()}
	rp, err := startReplayProc(cfg, filepath.Join(dir, "replay"), keyfile)
	if err != nil {
		return nil, err
	}
	defer rp.stop()
	for i := 0; i < n; i++ {
		pr.reqs = append(pr.reqs, g.Request(pairBase+i))
	}
	do := (*client).runJob
	if cfg.Workload == FleetSweep {
		do = (*client).runSweep
	}
	for b := 0; b < n; b += block {
		pr.outs = append(pr.outs, closedLoop(ctx, clientsFor(hc, fl), listSource(pr.reqs[b:b+block]), do)...)
		// Alternate which replay goes first.
		order := []bool{false, true}
		if (b/block)%2 == 1 {
			order = []bool{true, false}
		}
		for _, spans := range order {
			resp, err := rp.do(replayCmd{From: b, Count: block, Spans: spans})
			if err != nil {
				return nil, err
			}
			if spans {
				pr.on += time.Duration(resp.ElapsedNS)
				pr.rec.Absorb(&Recorder{spans: resp.Spans})
			} else {
				pr.off += time.Duration(resp.ElapsedNS)
			}
		}
	}
	return pr, nil
}

// traced turns the paired run into the per-layer metrics and prints the
// attribution table. refs are the timed requests' references, prRefs
// the paired requests'.
func traced(cfg config, tm *timed, pr *pairedRun, refs, prRefs []reference, ops int, p50 float64, out io.Writer) (map[string]metric, error) {
	s := summarize(pr.rec.Spans())
	spanPath := filepath.Join(filepath.Dir(cfg.Results), fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := pr.rec.WriteFile(spanPath); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	callUS := func(layer string) float64 { return per(s.self[layer], s.calls[layer], us) }

	// Function costs, per call (self time).
	for _, l := range []string{"service.spec_decode", "service.submit", "service.view_encode",
		"tenant.auth", "tenant.admit", "tenant.queue", "store.key", "store.get", "store.put",
		"store.wal_append", "sweep.decode", "sweep.expand", "shard.plan"} {
		put(l+"_us", "us", callUS(l))
	}
	cells, units, trials := 0, s.calls["experiments.scenario"], s.calls["experiments.trial_setup"]
	if cfg.Workload == FleetSweep {
		cells = s.calls["store.put"]
	}
	put("shard.merge_us", "us", per(s.self["shard.merge"], cells, us))
	put("wire.frame_us", "us", per(s.self["wire.frame"], units, us))
	put("cluster.codec_us", "us", per(s.self["cluster.codec"], units, us))
	put("sweep.csv_ms", "ms", per(s.self["sweep.csv"], s.calls["sweep.csv"], ms))
	put("store.open_ms", "ms", ms(s.openTime))
	put("experiments.scenario_ms", "ms", per(s.total["experiments.scenario"], units, ms))
	put("experiments.trial_setup_ms", "ms", per(s.self["experiments.trial_setup"], trials, ms))
	engine := time.Duration(0)
	for _, p := range corePhases {
		put(p+"_ms", "ms", per(s.self[p], trials, ms))
		engine += s.self[p]
	}
	var execSlots int64
	for i := 0; i < len(prRefs) && cfg.Workload != WarmHits; i++ {
		for _, rows := range prRefs[i].Rows {
			for _, r := range rows {
				execSlots += int64(r.Slots)
			}
		}
	}
	put("core.us_per_slot", "us", ratio(us(engine), float64(execSlots)))

	// Simulated statistics per request over the digest prefix.
	var st simStats
	for _, ref := range refs[:digestRequests] {
		for _, rows := range ref.Rows {
			st.add(rows)
		}
	}
	put("core.slots", "count", float64(st.Slots)/digestRequests)
	put("core.predicate_tests", "count", float64(st.PredicateTests)/digestRequests)
	put("core.revoked_keys", "count", float64(st.RevokedKeys)/digestRequests)
	put("simnet.total_bytes", "bytes", float64(st.TotalBytes)/digestRequests)

	// The untraced run's own view: job timestamps and server counters.
	var qw, ex []float64
	for _, o := range tm.outs {
		if o.Exec > 0 {
			qw = append(qw, ms(o.QueueWait))
			ex = append(ex, ms(o.Exec))
		}
	}
	put("service.queue_wait_ms", "ms", mean(qw))
	put("service.exec_ms", "ms", mean(ex))
	d := func(name string) float64 { return tm.after[name] - tm.before[name] }
	opsF, cellsF := float64(ops), 0.0
	if cfg.Workload == FleetSweep {
		cellsF = opsF
	}
	put("service.cached_share", "ratio", ratio(d("service_jobs_cached_total"), d("service_jobs_submitted_total")))
	put("service.rejected", "count", d("service_jobs_rejected_total"))
	hits := d("store_hits_total")
	put("store.cache_hit_share", "ratio", ratio(hits-d("store_cache_evictions_total"), hits))
	put("store.puts_per_op", "1/op", ratio(d("store_puts_total"), opsF))
	put("store.wal_appends_per_op", "1/op", ratio(d("store_wal_appends_total"), opsF))
	put("cluster.leases_per_cell", "1/cell", ratio(d("cluster_leases_granted_total"), cellsF))
	put("cluster.shards_per_cell", "1/cell", ratio(d("cluster_shards_planned_total"), cellsF))
	put("wire.frames_per_cell", "1/cell", ratio(d("wire_frames_sent_total")+d("wire_frames_received_total"), cellsF))
	put("cluster.reassigned", "count", d("cluster_leases_reassigned_total"))
	put("trace.overhead_pct", "%", 100*(pr.on.Seconds()/pr.off.Seconds()-1))

	sum := attribution(out, cfg, s, pr, p50)
	put("attribution.layers_ms", "ms", sum)
	put("attribution.remainder_ms", "ms", p50-sum)
	put("attribution.layers_share", "ratio", sum/p50)
	return m, nil
}

// attribution prints each layer's self time per request at the median
// of the untraced latency, and the remainder against latency_p50_ms.
// Each paired request's layer self times are taken as shares of that
// same request's server latency; the table is the mean share of each
// layer over the paired requests, scaled to the timed phase's
// latency_p50_ms. Comparing each request with itself keeps the mix of
// job sizes out of the sum. It returns the layers' sum in ms.
func attribution(out io.Writer, cfg config, s spanSummary, pr *pairedRun, p50 float64) float64 {
	n := len(pr.reqs)
	share := map[string]float64{}
	ratios := make([]float64, 0, n)
	var lat []float64
	for i, req := range pr.reqs {
		l := ms(pr.outs[i].Latency)
		lat = append(lat, l)
		total := 0.0
		for name, dur := range s.perReq[req.Index] {
			share[name] += ms(dur) / l / float64(n)
			total += ms(dur)
		}
		ratios = append(ratios, total/l)
	}
	sum := 0.0
	for _, v := range share {
		sum += v * p50
	}
	q1, q3 := quartiles(ratios)
	fmt.Fprintf(out, "# attribution %s seed %d: each layer's mean share of its request's server latency over %d paired requests, scaled to latency_p50_ms\n",
		cfg.Workload, cfg.Seed, n)
	fmt.Fprintf(out, "# %-28s %14s %8s\n", "layer", "self ms/req", "share")
	for _, l := range layerOrder {
		if v, ok := share[l]; ok {
			fmt.Fprintf(out, "# %-28s %14.4f %7.2f%%\n", l, v*p50, 100*v)
		}
	}
	fmt.Fprintf(out, "# %-28s %14.4f %7.2f%%\n", "layers total", sum, 100*sum/p50)
	fmt.Fprintf(out, "# %-28s %14.4f %7.2f%%\n", remainderName[cfg.Workload], p50-sum, 100*(p50-sum)/p50)
	if cfg.Workload == ColdMix {
		// Executed jobs carry server timestamps, which split the
		// remainder in two: the server's queueing and execution beyond
		// the layers, and what lies outside the server's job (HTTP, the
		// wait for the next poll). With polls withheld until a job ends,
		// the replay's layers match the server's execution to 1%, so
		// the first part is the CPU the polling takes from the jobs.
		var inServer, outside float64
		for i := range pr.reqs {
			o := pr.outs[i]
			l := ms(o.Latency)
			job := ms(o.QueueWait + o.Exec)
			outside += (l - job) / l / float64(n)
			inServer += (job - ratios[i]*l) / l / float64(n)
		}
		fmt.Fprintf(out, "#   %-26s %14.4f %7.2f%%\n", "server job beyond layers", inServer*p50, 100*inServer)
		fmt.Fprintf(out, "#   %-26s %14.4f %7.2f%%\n", "outside the server job", outside*p50, 100*outside)
	}
	fmt.Fprintf(out, "# %-28s %14.4f\n", "latency_p50_ms (timed phase)", p50)
	fmt.Fprintf(out, "# %-28s %14.4f\n", "latency p50 (paired phase)", median(lat))
	fmt.Fprintf(out, "# per-request layers/latency: median %.3f, quartiles %.3f..%.3f\n", median(ratios), q1, q3)
	if cfg.Workload == ColdMix {
		verdict := "yes"
		if math.Abs(sum-p50) > 0.10*p50 {
			verdict = "NO"
		}
		fmt.Fprintf(out, "# layers within 10%% of latency_p50_ms: %s\n", verdict)
	}
	fmt.Fprintf(out, "# tracing overhead: replay %.3f s with spans, %.3f s without (%+.1f%%)\n",
		pr.on.Seconds(), pr.off.Seconds(), 100*(pr.on.Seconds()/pr.off.Seconds()-1))
	return sum
}

// remainderName names what the layers do not cover on each workload.
var remainderName = map[string]string{
	ColdMix:    "remainder: http+polling",
	WarmHits:   "remainder: http transport",
	FleetSweep: "remainder: fleet+http+leases",
}
