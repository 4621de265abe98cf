package store

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	reg := metrics.New()
	s := mustOpen(t, t.TempDir(), Config{Metrics: reg})

	type payload struct {
		A int     `json:"a"`
		B float64 `json:"b"`
	}
	want := []payload{{1, 2.5}, {3, -0.125}}
	if err := s.Put("k1", "test", want, Meta{DurationMicros: 42, Version: "v1"}); err != nil {
		t.Fatalf("Put: %v", err)
	}

	e, ok, err := s.Get("k1")
	if err != nil || !ok {
		t.Fatalf("Get(k1) = ok=%v err=%v, want a hit", ok, err)
	}
	var got []payload
	if err := json.Unmarshal(e.Value, &got); err != nil {
		t.Fatalf("unmarshal value: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if e.Meta.DurationMicros != 42 || e.Meta.Version != "v1" || e.Kind != "test" {
		t.Fatalf("metadata lost: %+v", e)
	}

	if _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("Get(absent) = ok=%v err=%v, want a clean miss", ok, err)
	}
	if h, m := reg.Counter(MetricHits).Value(), reg.Counter(MetricMisses).Value(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", h, m)
	}

	// Idempotent Put: re-storing the key keeps the first value.
	if err := s.Put("k1", "test", []payload{{9, 9}}, Meta{}); err != nil {
		t.Fatalf("idempotent Put: %v", err)
	}
	e2, _, _ := s.Get("k1")
	if string(e2.Value) != string(e.Value) {
		t.Fatalf("second Put overwrote the entry: %s vs %s", e2.Value, e.Value)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, "test", map[string]string{"k": k}, Meta{}); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reg := metrics.New()
	s2 := mustOpen(t, dir, Config{Metrics: reg})
	if s2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", s2.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		e, ok, err := s2.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s) after reopen: ok=%v err=%v", k, ok, err)
		}
		var m map[string]string
		if err := json.Unmarshal(e.Value, &m); err != nil || m["k"] != k {
			t.Fatalf("Get(%s) after reopen: value %s err %v", k, e.Value, err)
		}
	}
	if c := reg.Counter(MetricCorrupt).Value(); c != 0 {
		t.Fatalf("clean reopen counted %d corrupt records", c)
	}
}

// TestCacheEvictionBounded shrinks the LRU to two entries and checks
// that all keys remain readable (the journal backs the cache) while
// evictions are counted.
func TestCacheEvictionBounded(t *testing.T) {
	reg := metrics.New()
	s := mustOpen(t, t.TempDir(), Config{CacheEntries: 2, Metrics: reg})
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		if err := s.Put(k, "test", i, Meta{}); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if ev := reg.Counter(MetricEvictions).Value(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
	for i, k := range keys {
		e, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		var v int
		if json.Unmarshal(e.Value, &v); v != i {
			t.Fatalf("Get(%s) = %d, want %d", k, v, i)
		}
	}
	if len(s.cache) != 2 || s.lru.Len() != 2 {
		t.Fatalf("cache holds %d/%d entries, want bound 2", len(s.cache), s.lru.Len())
	}
}

// TestScenarioKeyIdentity checks the two sides of the content address:
// execution-only knobs and normalization must not move the key, while
// every result-affecting field must.
func TestScenarioKeyIdentity(t *testing.T) {
	base := experiments.DefaultScenario()
	k0, err := ScenarioKey(base)
	if err != nil {
		t.Fatalf("ScenarioKey: %v", err)
	}

	// Workers is invisible in the rows, so it must be invisible in the key.
	w := base
	w.Workers = 8
	if kw, _ := ScenarioKey(w); kw != k0 {
		t.Fatalf("worker count moved the key: %s vs %s", kw, k0)
	}

	// Defaulted and explicit encodings of the same scenario collide.
	expl := base
	expl.Synopses = 100
	if ke, _ := ScenarioKey(expl); ke != k0 {
		t.Fatalf("normalization-equal specs got different keys")
	}

	// Result-affecting fields move the key: seed, faults, ARQ.
	seeded := base
	seeded.Seed++
	if ks, _ := ScenarioKey(seeded); ks == k0 {
		t.Fatalf("seed change did not move the key")
	}
	faulty := base
	faulty.Faults = &faults.Spec{CrashProb: 0.01}
	faulty.ARQ = &simnet.ARQConfig{MaxRetries: 2}
	if kf, _ := ScenarioKey(faulty); kf == k0 {
		t.Fatalf("faults+ARQ did not move the key")
	}
}

func TestScenarioPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{})
	cfg := experiments.DefaultScenario()
	cfg.N = 30
	cfg.Trials = 3
	rows, err := experiments.RunScenario(cfg)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if err := s.PutScenario(cfg, rows, Meta{Version: "test"}); err != nil {
		t.Fatalf("PutScenario: %v", err)
	}
	got, ok, err := s.GetScenario(cfg)
	if err != nil || !ok {
		t.Fatalf("GetScenario: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("stored rows differ:\n%+v\nvs\n%+v", got, rows)
	}
	// A different worker count is the same content address.
	cfg.Workers = 4
	if _, ok, _ := s.GetScenario(cfg); !ok {
		t.Fatalf("GetScenario missed after changing only Workers")
	}
}

// TestGetAfterClose: a closed store answers every Get with the
// closed-store error, whether or not the key is still in the cache.
func TestGetAfterClose(t *testing.T) {
	s, err := Open(t.TempDir(), Config{CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"evicted", "cached"} {
		if err := s.Put(k, "test", k, Meta{}); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"evicted", "cached"} {
		if _, ok, err := s.Get(k); ok || !errors.Is(err, errClosed) {
			t.Fatalf("Get(%s) after Close: ok=%v err=%v, want %v", k, ok, err, errClosed)
		}
	}
}
