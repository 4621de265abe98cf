package shard

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestPlan(t *testing.T) {
	cases := []struct {
		trials, per int
		want        []Range
	}{
		{trials: 10, per: 0, want: []Range{{0, 10}}},  // sharding off
		{trials: 10, per: 10, want: []Range{{0, 10}}}, // fits in one shard
		{trials: 10, per: 64, want: []Range{{0, 10}}}, // fits in one shard
		{trials: 10, per: 4, want: []Range{{0, 4}, {4, 8}, {8, 10}}},
		{trials: 8, per: 4, want: []Range{{0, 4}, {4, 8}}},
		{trials: 3, per: 1, want: []Range{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got := Plan(c.trials, c.per)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Plan(%d, %d) = %v, want %v", c.trials, c.per, got, c.want)
		}
	}
}

func TestKeyDistinguishesParentAndRange(t *testing.T) {
	seen := map[string]string{}
	for _, c := range []struct {
		parent     string
		start, end int
	}{
		{"aaaa", 0, 64}, {"aaaa", 64, 128}, {"aaaa", 0, 128}, {"bbbb", 0, 64},
	} {
		k := Key(c.parent, c.start, c.end)
		if len(k) != 64 {
			t.Fatalf("Key length %d, want 64 hex chars", len(k))
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %q and %v", prev, c)
		}
		seen[k] = k
	}
	if Key("aaaa", 0, 64) != Key("aaaa", 0, 64) {
		t.Fatal("Key is not deterministic")
	}
}

func mergerRows(r Range) []experiments.ScenarioRow {
	rows := make([]experiments.ScenarioRow, r.End-r.Start)
	for i := range rows {
		rows[i].Trial = r.Start + i
		rows[i].Answered = true
	}
	return rows
}

func TestMergerAssemblesOutOfOrder(t *testing.T) {
	ranges := Plan(10, 4)
	m := NewMerger(ranges)
	if m.Shards() != 3 || m.Done() || m.Rows() != nil {
		t.Fatal("fresh merger should be empty and incomplete")
	}
	for _, i := range []int{2, 0, 1} {
		if err := m.Add(i, mergerRows(ranges[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Done() {
		t.Fatal("all shards merged but Done is false")
	}
	rows := m.Rows()
	if len(rows) != 10 {
		t.Fatalf("assembled %d rows, want 10", len(rows))
	}
	for i, row := range rows {
		if row.Trial != i {
			t.Fatalf("row %d has trial index %d", i, row.Trial)
		}
	}
}

func TestMergerRejectsBadShards(t *testing.T) {
	ranges := Plan(10, 4)
	m := NewMerger(ranges)
	if err := m.Add(5, nil); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if err := m.Add(0, mergerRows(Range{0, 3})); err == nil {
		t.Fatal("wrong row count accepted")
	}
	wrong := mergerRows(ranges[0])
	wrong[2].Trial = 99
	if err := m.Add(0, wrong); err == nil {
		t.Fatal("wrong trial index accepted")
	}
	if err := m.Add(0, mergerRows(ranges[0])); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, mergerRows(ranges[0])); err == nil {
		t.Fatal("duplicate shard accepted")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	spec := experiments.ScenarioConfig{N: 24, Topology: "line", Query: "min", Attack: "none", Trials: 8, Seed: 3}
	parent := "f00d"
	var ds []Descriptor
	// Three shards, then the scenario as one unit: the range [0, 8).
	for i, r := range append(Plan(8, 3), Plan(8, 0)...) {
		ds = append(ds, Descriptor{
			ID: "u00000" + string(rune('a'+i)), Key: Key(parent, r.Start, r.End), Parent: parent,
			Start: r.Start, End: r.End, Spec: spec,
		})
	}
	b, err := EncodeBatch(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ds)
	}
}

func TestDecodeBatchRejectsHostileInput(t *testing.T) {
	good := Descriptor{ID: "u1", Key: Key("p", 0, 4), Parent: "p", End: 4,
		Spec: experiments.ScenarioConfig{N: 24, Trials: 4, Seed: 1}}
	// batch marshals descriptors as they are, without EncodeBatch's checks.
	batch := func(ds ...Descriptor) []byte {
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	with := func(mutate func(d *Descriptor)) []byte {
		d := good
		mutate(&d)
		return batch(d)
	}
	ok := batch(good)
	if _, err := DecodeBatch(ok); err != nil {
		t.Fatalf("good batch: %v", err)
	}
	long := strings.Repeat("x", maxFieldBytes+1)
	many := make([]Descriptor, maxBatch+1)
	for i := range many {
		many[i] = good
	}
	cases := map[string][]byte{
		"empty":            {},
		"not an array":     []byte(`{"id":"u1"}`),
		"null":             []byte(`null`),
		"null descriptor":  []byte(`[null]`),
		"truncated tail":   ok[:len(ok)-3],
		"missing bracket":  ok[:len(ok)-1],
		"trailing bytes":   append(append([]byte{}, ok...), ']'),
		"huge count":       batch(many...),
		"oversized id":     with(func(d *Descriptor) { d.ID = long }),
		"oversized key":    with(func(d *Descriptor) { d.Key = long }),
		"oversized parent": with(func(d *Descriptor) { d.Parent = long }),
		"negative start":   with(func(d *Descriptor) { d.Start = -1 }),
		"empty range":      with(func(d *Descriptor) { d.Start, d.End = 4, 4 }),
		"inverted range":   with(func(d *Descriptor) { d.Start, d.End = 4, 2 }),
		"end past cap":     with(func(d *Descriptor) { d.End = maxTrialIndex + 1 }),
		"bad spec":         bytes.Replace(ok, []byte(`"n":24`), []byte(`"n":"24"`), 1),
	}
	for name, b := range cases {
		if _, err := DecodeBatch(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDescriptorRunRange(t *testing.T) {
	spec := experiments.ScenarioConfig{N: 24, Topology: "line", Query: "min", Attack: "none", Trials: 6, Seed: 11}
	full, err := experiments.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := (&Descriptor{Key: "k", Parent: "p", Start: 0, End: 6, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, full) {
		t.Fatal("Run over [0, Trials) is not the full run")
	}
	part, err := (&Descriptor{Key: "k", Parent: "p", Start: 2, End: 5, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part, full[2:5]) {
		t.Fatal("sharded Run is not the matching slice of the full run")
	}
}

func TestEncodeBatchCaps(t *testing.T) {
	if _, err := EncodeBatch(make([]Descriptor, maxBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	d := Descriptor{ID: strings.Repeat("x", maxFieldBytes+1)}
	if _, err := EncodeBatch([]Descriptor{d}); err == nil {
		t.Fatal("oversized field accepted")
	}
}
