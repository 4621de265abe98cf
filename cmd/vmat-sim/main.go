// Command vmat-sim runs one VMAT execution over a simulated sensor
// network and reports the outcome: the aggregate answer on the happy
// path, or the pinpointing/revocation verdict when an attack corrupted
// the run.
//
// Usage:
//
//	vmat-sim -n 100 -query min
//	vmat-sim -n 100 -query count -synopses 100 -attack drop -malicious 2
//	vmat-sim -n 80 -attack drop-choke -malicious 3 -multipath
//
// Attacks: none, drop, hide, junk, choke, drop-choke, mute.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/keydist"
	"repro/internal/prof"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// version is stamped by the Makefile via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmat-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmat-sim", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of nodes (node 0 is the base station)")
	topo := fs.String("topology", "geometric", "topology: geometric|grid|line")
	query := fs.String("query", "min", "query: min|count|sum|average")
	loss := fs.Float64("loss", 0, "per-message radio loss probability")
	campaign := fs.Int("campaign", 1, "number of consecutive executions sharing one revocation registry (min query only)")
	theta := fs.Int("theta", 0, "whole-sensor revocation threshold (0 = auto-calibrate)")
	synopses := fs.Int("synopses", 100, "synopsis instances for count/sum")
	attack := fs.String("attack", "none", "attack: none|drop|hide|junk|choke|drop-choke|mute")
	malicious := fs.Int("malicious", 1, "number of malicious sensors (ignored for -attack none)")
	multipath := fs.Bool("multipath", false, "use ring-based multi-path aggregation")
	seed := fs.Uint64("seed", 1, "simulation seed")
	crashProb := fs.Float64("crash", 0, "per-node per-slot crash probability (fault injection)")
	recoverProb := fs.Float64("recover", 0.05, "per-slot recovery probability for crashed nodes")
	linkDown := fs.Float64("link-down", 0, "per-link per-slot churn-down probability (fault injection)")
	linkUp := fs.Float64("link-up", 0.2, "per-slot restore probability for downed links")
	burstLoss := fs.Float64("burst-loss", 0, "bad-state loss rate of the Gilbert-Elliott burst chain (0 = off)")
	arq := fs.Bool("arq", false, "enable the link-layer ARQ (per-hop acks, bounded-backoff retransmissions)")
	maxSlots := fs.Int("max-slots", 0, "execution slot deadline (0 = default when faults/ARQ are on, unlimited otherwise)")
	verbose := fs.Bool("v", false, "print the execution event trace")
	trace := fs.Bool("trace", false, "print the execution event trace as NDJSON (same encoding as the server's /trace endpoint)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, "vmat-sim", version)
		return nil
	}
	if *n < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", *n)
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	rng := crypto.NewStreamFromSeed(*seed)
	graph, err := experiments.ScenarioTopology(*topo, *n, rng)
	if err != nil {
		return err
	}
	// A grid rounds the node count up to fill its rectangle; keep every
	// downstream consumer (deployment, truth loops) on the actual size.
	*n = graph.NumNodes()
	params := keydist.Params{PoolSize: 10000, RingSize: 300}
	dep, err := keydist.NewDeployment(*n, params, crypto.KeyFromUint64(*seed), rng.Fork([]byte("keys")))
	if err != nil {
		return err
	}
	mal := map[topology.NodeID]bool{}
	if *attack != "none" {
		mal = experiments.PlaceMalicious(graph, *malicious, rng)
	}
	adv, err := experiments.ScenarioAttack(*attack)
	if err != nil {
		return err
	}

	th := *theta
	if th == 0 {
		th = keydist.SuggestTheta(params, max(len(mal), 1), *n, 0.05)
	}
	registry := keydist.NewRegistry(dep, th)
	cfg := core.Config{
		Graph:            graph,
		Deployment:       dep,
		Registry:         registry,
		Malicious:        mal,
		Adversary:        adv,
		Multipath:        *multipath,
		LossRate:         *loss,
		Seed:             *seed,
		Readings:         experiments.ScenarioMinReading,
		AdversaryFavored: *attack != "none",
		MaxSlots:         *maxSlots,
	}
	if *crashProb > 0 || *linkDown > 0 || *burstLoss > 0 {
		spec := &faults.Spec{}
		if *crashProb > 0 {
			spec.CrashProb = *crashProb
			spec.RecoverProb = *recoverProb
		}
		if *linkDown > 0 {
			spec.LinkDownProb = *linkDown
			spec.LinkUpProb = *linkUp
		}
		if *burstLoss > 0 {
			spec.Burst = &faults.BurstSpec{EnterProb: 0.05, ExitProb: 0.2, LossBad: *burstLoss}
		}
		cfg.Faults = spec
	}
	if *arq {
		cfg.ARQ = &simnet.ARQConfig{}
	}
	if *verbose {
		cfg.Trace = func(ev core.Event) { fmt.Fprintln(w, ev) }
	}
	if *trace {
		enc := service.NewTraceEncoder(w)
		cfg.Trace = func(ev core.Event) { _ = enc.Encode(0, ev) }
	}

	fmt.Fprintf(w, "network: %d nodes, %d edges, depth %d, %d malicious\n",
		graph.NumNodes(), graph.NumEdges(), graph.Depth(topology.BaseStation), len(mal))

	switch *query {
	case "min":
		for exec := 1; exec <= *campaign; exec++ {
			if *campaign > 1 {
				fmt.Fprintf(w, "--- execution %d ---\n", exec)
				cfg.Seed = *seed + uint64(exec)
			}
			eng, err := core.NewEngine(cfg)
			if err != nil {
				return err
			}
			out, err := eng.Run()
			if err != nil {
				return err
			}
			report(w, out)
			if out.Kind == core.OutcomeResult {
				fmt.Fprintf(w, "minimum: %g\n", out.Mins[0])
				if *campaign > 1 {
					fmt.Fprintf(w, "campaign converged after %d executions; %d keys individually revoked\n",
						exec, registry.KeyRevocationAnnouncements())
					break
				}
			}
		}
	case "count":
		res, err := core.RunCount(cfg, experiments.ScenarioCountPredicate, *synopses)
		if err != nil {
			return err
		}
		report(w, res.Outcome)
		if res.Answered() {
			truth := 0
			for id := 1; id < *n; id++ {
				if experiments.ScenarioCountPredicate(topology.NodeID(id)) {
					truth++
				}
			}
			fmt.Fprintf(w, "count estimate: %.1f (truth %d, predicate: even IDs)\n", res.Estimate, truth)
		}
	case "sum":
		res, err := core.RunSum(cfg, experiments.ScenarioSumReading, experiments.ScenarioSumDomain, *synopses)
		if err != nil {
			return err
		}
		report(w, res.Outcome)
		if res.Answered() {
			var truth int64
			for id := 1; id < *n; id++ {
				truth += experiments.ScenarioSumReading(topology.NodeID(id))
			}
			fmt.Fprintf(w, "sum estimate: %.1f (truth %d)\n", res.Estimate, truth)
		}
	case "average":
		res, err := core.RunAverageCombined(cfg, experiments.ScenarioAvgReading, experiments.ScenarioAvgDomain, *synopses)
		if err != nil {
			return err
		}
		report(w, res.Sum.Outcome)
		if !math.IsNaN(res.Estimate) {
			var truth float64
			for id := 1; id < *n; id++ {
				truth += float64(experiments.ScenarioAvgReading(topology.NodeID(id)))
			}
			truth /= float64(*n - 1)
			fmt.Fprintf(w, "average estimate: %.2f (truth %.2f)\n", res.Estimate, truth)
		}
	default:
		return fmt.Errorf("unknown query %q", *query)
	}
	return nil
}

func report(w io.Writer, out *core.Outcome) {
	fmt.Fprintf(w, "outcome: %v\n", out.Kind)
	fmt.Fprintf(w, "cost: %d slots (%.1f flooding rounds), %d predicate tests, %d KB total traffic\n",
		out.Slots, out.FloodingRounds, out.PredicateTests, out.Stats.TotalBytes()/1024)
	if out.Partial {
		fmt.Fprintf(w, "degraded: partial result, %d sensors unreachable, deadline exceeded: %v\n",
			out.Unreachable, out.DeadlineExceeded)
	}
	if out.Stats.Retransmits > 0 || out.Stats.ARQFailed > 0 {
		fmt.Fprintf(w, "arq: %d retransmissions, %d frames abandoned, %d acks (%d lost)\n",
			out.Stats.Retransmits, out.Stats.ARQFailed, out.Stats.AcksSent, out.Stats.AcksLost)
	}
	if c := out.Faults; c != (faults.Counters{}) {
		fmt.Fprintf(w, "faults: %d crashes, %d recoveries, %d links down, %d restored\n",
			c.Crashes, c.Recoveries, c.LinksDowned, c.LinksRestored)
	}
	if len(out.RevokedKeys) > 0 || len(out.RevokedNodes) > 0 {
		fmt.Fprintf(w, "revoked: keys %v, sensors %v\n", out.RevokedKeys, out.RevokedNodes)
	}
	if out.Veto != nil {
		fmt.Fprintf(w, "veto: sensor %d, instance %d, value %g, level %d\n",
			out.Veto.Vetoer, out.Veto.Instance, out.Veto.Value, out.Veto.Level)
	}
}
