package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records, want 0", len(recs))
	}
	want := []WALRecord{
		{Kind: RecSweepOpened, Sweep: "s000001", Grid: json.RawMessage(`{"n":[30]}`)},
		{Kind: RecUnitEnqueued, Sweep: "s000001", Key: "k1"},
		{Kind: RecUnitCompleted, Sweep: "s000001", Key: "k1", Source: "executed"},
		{Kind: RecSweepClosed, Sweep: "s000001", Status: "done"},
	}
	if err := w.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[1:]...); err != nil { // batched append
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Sweep != want[i].Sweep ||
			got[i].Key != want[i].Key || got[i].Source != want[i].Source ||
			got[i].Status != want[i].Status {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALTornTailTruncatedAndCounted(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(WALRecord{Kind: RecUnitEnqueued, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record, as a crash during an append would.
	path := filepath.Join(dir, WALName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	w2, recs, err := OpenWAL(dir, WALConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("torn WAL replayed %d records, want 2", len(recs))
	}
	if got := reg.Counter(MetricWALCorrupt).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricWALCorrupt, got)
	}
	// Appends continue from the clean boundary.
	if err := w2.Append(WALRecord{Kind: RecUnitCompleted, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, err = OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("post-recovery WAL replayed %d records, want 3", len(recs))
	}
}

func TestWALCompactKeepsOnlyGivenRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(WALRecord{Kind: RecUnitEnqueued, Key: "old"}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []WALRecord{
		{Kind: RecSweepOpened, Sweep: "s000002"},
		{Kind: RecUnitCompleted, Sweep: "s000002", Key: "k", Source: "failed", Error: "boom"},
	}
	if err := w.Compact(keep); err != nil {
		t.Fatal(err)
	}
	// The handle stays live across the rename: appends keep working.
	if err := w.Append(WALRecord{Kind: RecUnitEnqueued, Sweep: "s000002", Key: "k2"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("compacted WAL replayed %d records, want 3", len(recs))
	}
	if recs[0].Kind != RecSweepOpened || recs[1].Error != "boom" || recs[2].Key != "k2" {
		t.Fatalf("compacted records wrong: %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, WALName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("compaction temp file left behind (stat err %v)", err)
	}
}

func TestWALHostileBytesNeverPanic(t *testing.T) {
	// A WAL full of garbage must replay to zero records, count the
	// corruption, and leave the file usable.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), []byte("not a wal at all, definitely hostile"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	w, recs, err := OpenWAL(dir, WALConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 {
		t.Fatalf("hostile WAL replayed %d records, want 0", len(recs))
	}
	if got := reg.Counter(MetricWALCorrupt).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricWALCorrupt, got)
	}
	if err := w.Append(WALRecord{Kind: RecSweepOpened, Sweep: "s000001"}); err != nil {
		t.Fatal(err)
	}
}
