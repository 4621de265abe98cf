package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

// tinySeg is a segment threshold small enough that a handful of puts
// rolls several times.
const tinySeg = 512

// putN writes n distinct keyed values and returns the expected
// key→value map.
func putN(t *testing.T, s *Store, n int, prefix string) map[string]string {
	t.Helper()
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%03d", prefix, i)
		v := fmt.Sprintf("value-%s-%03d", prefix, i)
		if err := s.Put(k, "test", v, Meta{}); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		want[k] = v
	}
	return want
}

// checkAll asserts every key in want is readable with its value and
// that the store holds exactly len(want) entries.
func checkAll(t *testing.T, s *Store, want map[string]string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for k, v := range want {
		e, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		var got string
		if err := json.Unmarshal(e.Value, &got); err != nil || got != v {
			t.Fatalf("Get(%s) = %q (err=%v), want %q", k, got, err, v)
		}
	}
}

// TestSegmentRollAndReopen drives the active segment past the threshold
// repeatedly and checks that the layout rolls, everything stays
// readable, and both reopen paths (snapshot and full replay) converge.
func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 40, "roll")
	st := s.Status()
	if st.Segments < 3 {
		t.Fatalf("after 40 puts at a %d-byte threshold, only %d segments", tinySeg, st.Segments)
	}
	checkAll(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Snapshot-path reopen.
	s2 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	checkAll(t, s2, want)
	if got := s2.Status().Segments; got != st.Segments {
		t.Fatalf("reopen changed segment count: %d vs %d", got, st.Segments)
	}
	s2.Close()

	// Full-replay reopen.
	if err := os.Remove(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatalf("remove snapshot: %v", err)
	}
	s3 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer s3.Close()
	checkAll(t, s3, want)
}

// TestDeleteSemantics: delete kills a key, a later put revives it, and
// both reopen paths agree on the result.
func TestDeleteSemantics(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg, Metrics: reg})
	want := putN(t, s, 12, "del")

	if ok, err := s.Delete("del-003"); err != nil || !ok {
		t.Fatalf("Delete(del-003): ok=%v err=%v", ok, err)
	}
	delete(want, "del-003")
	if ok, err := s.Delete("del-003"); err != nil || ok {
		t.Fatalf("second Delete(del-003): ok=%v err=%v, want no-op", ok, err)
	}
	if ok, err := s.Delete("never-was"); err != nil || ok {
		t.Fatalf("Delete(absent): ok=%v err=%v, want no-op", ok, err)
	}
	if s.Has("del-003") {
		t.Fatal("deleted key still Has")
	}
	if _, ok, _ := s.Get("del-003"); ok {
		t.Fatal("deleted key still Gets")
	}
	if v := reg.Counter(MetricDeletes).Value(); v != 1 {
		t.Fatalf("deletes counter = %d, want 1", v)
	}

	// Revive with a different value: the tombstone shadows the first
	// record, the revival wins.
	if err := s.Put("del-003", "test", "revived", Meta{}); err != nil {
		t.Fatalf("revive Put: %v", err)
	}
	want["del-003"] = "revived"
	checkAll(t, s, want)
	s.Close()

	s2 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	checkAll(t, s2, want)
	s2.Close()

	os.Remove(filepath.Join(dir, SnapshotName))
	s3 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer s3.Close()
	checkAll(t, s3, want)
}

// TestDeleteAcrossSegments deletes keys whose records live in sealed
// segments: the tombstone lands in the active segment but must shadow
// the old record on replay.
func TestDeleteAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 30, "x")
	if s.Status().Segments < 3 {
		t.Fatalf("want ≥3 segments, got %d", s.Status().Segments)
	}
	// x-000 is in the first (sealed) segment by construction.
	if ok, err := s.Delete("x-000"); err != nil || !ok {
		t.Fatalf("Delete(x-000): ok=%v err=%v", ok, err)
	}
	delete(want, "x-000")
	st := s.Status()
	if st.DeadBytes == 0 {
		t.Fatal("delete across segments recorded no dead bytes")
	}
	s.Close()

	os.Remove(filepath.Join(dir, SnapshotName))
	s2 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer s2.Close()
	checkAll(t, s2, want)
	if _, ok, _ := s2.Get("x-000"); ok {
		t.Fatal("tombstoned key resurrected by full replay")
	}
}

// TestStatusAccounting checks the numbers /healthz shows are grounded:
// live+dead bytes match file sizes, and deletes move bytes from live to
// dead.
func TestStatusAccounting(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg, Metrics: reg})
	defer s.Close()
	putN(t, s, 20, "acct")

	st := s.Status()
	var fileTotal int64
	s.segMu.RLock()
	for _, seq := range s.order {
		fileTotal += s.segs[seq].size.Load()
	}
	s.segMu.RUnlock()
	if st.LiveBytes+st.DeadBytes != fileTotal {
		t.Fatalf("live(%d)+dead(%d) != file bytes(%d)", st.LiveBytes, st.DeadBytes, fileTotal)
	}
	if st.DeadBytes != 0 {
		t.Fatalf("pure-append store has %d dead bytes", st.DeadBytes)
	}

	liveBefore := st.LiveBytes
	if _, err := s.Delete("acct-000"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st = s.Status()
	if st.LiveBytes >= liveBefore {
		t.Fatalf("delete did not shrink live bytes: %d -> %d", liveBefore, st.LiveBytes)
	}
	if st.DeadBytes == 0 || st.DeadRatio <= 0 {
		t.Fatalf("delete left dead accounting empty: %+v", st)
	}
	if g := reg.Gauge(MetricDeadBytes).Value(); g != st.DeadBytes {
		t.Fatalf("dead-bytes gauge %d != status %d", g, st.DeadBytes)
	}
	if g := reg.Gauge(MetricSegments).Value(); int(g) != st.Segments {
		t.Fatalf("segments gauge %d != status %d", g, st.Segments)
	}
}
