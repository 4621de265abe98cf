package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// higherIsBetter names the metrics where a larger value is the better
// one; every other metric is a cost.
var higherIsBetter = map[string]bool{
	"throughput_per_s":      true,
	"service.cached_share":  true,
	"store.cache_hit_share": true,
}

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints, per workload and metric, each side's median and
// quartiles over its runs, and the share of seed-matched pairs the
// change won (ties count for neither side).
func compare(w io.Writer, basePath, changePath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []result) map[key][]result {
		g := map[key][]result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	bg, cg := group(base), group(change)
	var keys []key
	for k := range bg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	fmt.Fprintf(w, "%-12s %-28s %12s %25s %12s %25s %9s\n", "workload", "metric",
		"base p50", "base q1..q3", "change p50", "change q1..q3", "won")
	for _, k := range keys {
		bs, cs := bg[k], cg[k]
		var names []string
		for name := range bs[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bv, cv := values(bs, name), values(cs, name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			b1, b3 := quartiles(bv)
			c1, c3 := quartiles(cv)
			fmt.Fprintf(w, "%-12s %-28s %12.4f %12.4f..%-12.4f %12.4f %12.4f..%-12.4f %9s\n",
				k.workload, name, median(bv), b1, b3, median(cv), c1, c3, wonShare(bs, cs, name))
		}
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// wonShare pairs runs of the same seed, in order, and reports how many
// pairs the change won.
func wonShare(base, change []result, name string) string {
	bySeed := map[uint64][]float64{}
	for _, r := range base {
		if m, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], m.Value)
		}
	}
	won, pairs := 0, 0
	for _, r := range change {
		m, ok := r.Metrics[name]
		q := bySeed[r.Seed]
		if !ok || len(q) == 0 {
			continue
		}
		b := q[0]
		bySeed[r.Seed] = q[1:]
		pairs++
		if (higherIsBetter[name] && m.Value > b) || (!higherIsBetter[name] && m.Value < b) {
			won++
		}
	}
	return fmt.Sprintf("%d/%d", won, pairs)
}
