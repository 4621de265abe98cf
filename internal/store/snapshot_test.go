package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

// TestSnapshotTailReplay: a snapshot from a clean close plus appends
// from a later, killed session — reopen must load the snapshot and
// replay only the tail, converging on the full state.
func TestSnapshotTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 20, "base")
	s.Close() // writes the snapshot

	// Second session: more appends, then a kill (handles dropped
	// without Close, so the snapshot is not refreshed).
	s2 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	for k, v := range putN(t, s2, 10, "tail") {
		want[k] = v
	}
	s2.closeSegments()

	s3 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer s3.Close()
	checkAll(t, s3, want)
}

// TestSnapshotEquivalence: reopening via snapshot and via full replay
// must produce identical contents and an identical status.
func TestSnapshotEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 30, "eq")
	s.Close()

	snap := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	snapStatus := snap.Status()
	checkAll(t, snap, want)
	snap.Close()

	os.Remove(filepath.Join(dir, SnapshotName))
	replay := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer replay.Close()
	replayStatus := replay.Status()
	checkAll(t, replay, want)

	if snapStatus.Bytes != replayStatus.Bytes ||
		snapStatus.Entries != replayStatus.Entries ||
		snapStatus.Segments != replayStatus.Segments {
		t.Fatalf("snapshot and replay status diverge:\n snap: %+v\nreplay: %+v", snapStatus, replayStatus)
	}
}

// TestCorruptSnapshotFallsBack: hostile snapshot bytes must never stop
// an open — the store counts the corruption, replays in full, and
// serves everything.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 15, "cs")
	s.Close()

	for name, mutate := range map[string]func([]byte) []byte{
		"garbage":   func(b []byte) []byte { return []byte("not a snapshot") },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			if len(b) > 40 {
				b[40] ^= 0xff
			}
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := os.ReadFile(filepath.Join(dir, SnapshotName))
			if err != nil {
				t.Fatalf("read snapshot: %v", err)
			}
			defer os.WriteFile(filepath.Join(dir, SnapshotName), orig, 0o644)
			buf := append([]byte(nil), orig...)
			if err := os.WriteFile(filepath.Join(dir, SnapshotName), mutate(buf), 0o644); err != nil {
				t.Fatalf("write mutated snapshot: %v", err)
			}
			reg := metrics.New()
			s2, err := Open(dir, Config{SegmentBytes: tinySeg, Metrics: reg})
			if err != nil {
				t.Fatalf("Open with %s snapshot: %v", name, err)
			}
			defer s2.Close()
			checkAll(t, s2, want)
			if c := reg.Counter(MetricCorrupt).Value(); c != 1 {
				t.Fatalf("corrupt counter = %d, want 1", c)
			}
		})
	}
}

// TestSnapshotCodecRoundTrip pins the binary encoding: encode → decode
// must be lossless.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	sn := &snapshot{
		unixTime: 1700000000,
		segs: []snapSegment{
			{id: 1, gen: 2, covered: 4096},
			{id: 5, gen: 1, covered: 128},
		},
		keys: []snapKey{
			{key: "abc", segIdx: 0, off: 0, length: 100},
			{key: "defgh", segIdx: 1, off: 28, length: 100},
		},
	}
	b, err := encodeSnapshot(sn)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.unixTime != sn.unixTime ||
		len(got.segs) != len(sn.segs) || len(got.keys) != len(sn.keys) {
		t.Fatalf("round trip diverged: %+v vs %+v", got, sn)
	}
	for i := range sn.segs {
		if got.segs[i] != sn.segs[i] {
			t.Fatalf("segment %d diverged: %+v vs %+v", i, got.segs[i], sn.segs[i])
		}
	}
	for i := range sn.keys {
		if got.keys[i] != sn.keys[i] {
			t.Fatalf("key %d diverged: %+v vs %+v", i, got.keys[i], sn.keys[i])
		}
	}
}

// TestSnapshotAgeGauge: the gauge reads -1 with no snapshot and ≥0
// after one is written.
func TestSnapshotAgeGauge(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := mustOpen(t, dir, Config{Metrics: reg})
	defer s.Close()
	if g := reg.Gauge(MetricSnapshotAge).Value(); g != -1 {
		t.Fatalf("snapshot age before any snapshot = %d, want -1", g)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if g := reg.Gauge(MetricSnapshotAge).Value(); g < 0 {
		t.Fatalf("snapshot age after snapshot = %d, want ≥ 0", g)
	}
	if c := reg.Counter(MetricSnapshots).Value(); c != 1 {
		t.Fatalf("snapshots counter = %d, want 1", c)
	}
}
