package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// journalPath returns the active segment of a fresh (never-rolled)
// store — the file that plays the old single-journal role in these
// torn-tail scenarios.
func journalPath(dir string) string { return filepath.Join(dir, segName(1, 1)) }

// fileSize stats the active segment.
func fileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	return fi.Size()
}

// writeThree populates a fresh store with three records and returns the
// segment offsets after each put (i.e. the record boundaries). The
// clean Close leaves an index snapshot; writeThree deletes it, because
// these tests simulate a crash — and a crashed process never wrote a
// snapshot covering the bytes it was torn in the middle of (snapshot
// capture syncs first, so covered bytes are always durable).
func writeThree(t *testing.T, dir string) []int64 {
	t.Helper()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var bounds []int64
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, "test", strings.Repeat(k, 64), Meta{}); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		bounds = append(bounds, fileSize(t, dir))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatalf("remove snapshot: %v", err)
	}
	return bounds
}

// TestTruncatedTailRecovered simulates a crash mid-append: the last
// record is cut short. Reopen must recover the complete records, count
// the corruption, log it, and keep the store writable.
func TestTruncatedTailRecovered(t *testing.T) {
	dir := t.TempDir()
	bounds := writeThree(t, dir)
	if err := os.Truncate(journalPath(dir), bounds[2]-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	reg := metrics.New()
	var logged strings.Builder
	s, err := Open(dir, Config{Metrics: reg, Log: func(f string, a ...any) {
		logged.WriteString(strings.TrimSpace(f))
	}})
	if err != nil {
		t.Fatalf("Open after torn write: %v", err)
	}
	defer s.Close()

	if s.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s.Len())
	}
	if c := reg.Counter(MetricCorrupt).Value(); c != 1 {
		t.Fatalf("corrupt counter = %d, want 1", c)
	}
	if !strings.Contains(logged.String(), "corrupt") {
		t.Fatalf("recovery was not logged: %q", logged.String())
	}
	for _, k := range []string{"a", "b"} {
		if _, ok, err := s.Get(k); !ok || err != nil {
			t.Fatalf("Get(%s) after recovery: ok=%v err=%v", k, ok, err)
		}
	}
	if _, ok, _ := s.Get("c"); ok {
		t.Fatalf("torn record c survived recovery")
	}

	// The journal was truncated to the last good boundary, so appends
	// resume cleanly and survive another reopen.
	if err := s.Put("d", "test", "recovered-append", Meta{}); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	s.Close()
	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("after recovery+append, reopened Len = %d, want 3", s2.Len())
	}
}

// TestTruncateAtRecordBoundary cuts the journal exactly between two
// records: every remaining record is complete, so recovery must be
// silent — no corruption counted.
func TestTruncateAtRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	bounds := writeThree(t, dir)
	if err := os.Truncate(journalPath(dir), bounds[1]); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	reg := metrics.New()
	s, err := Open(dir, Config{Metrics: reg})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s.Len())
	}
	if c := reg.Counter(MetricCorrupt).Value(); c != 0 {
		t.Fatalf("boundary truncation counted %d corrupt records, want 0", c)
	}
}

// TestCorruptChecksumTail flips a payload byte in the final record; the
// CRC must reject it and recovery keeps the prefix.
func TestCorruptChecksumTail(t *testing.T) {
	dir := t.TempDir()
	bounds := writeThree(t, dir)
	f, err := os.OpenFile(journalPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	// Flip a byte well inside the last record's payload.
	if _, err := f.WriteAt([]byte{0xff}, bounds[1]+frame.HeaderLen+8); err != nil {
		t.Fatalf("corrupt byte: %v", err)
	}
	f.Close()

	reg := metrics.New()
	s, err := Open(dir, Config{Metrics: reg})
	if err != nil {
		t.Fatalf("Open after checksum damage: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", s.Len())
	}
	if c := reg.Counter(MetricCorrupt).Value(); c != 1 {
		t.Fatalf("corrupt counter = %d, want 1", c)
	}
	if fileSize(t, dir) != bounds[1] {
		t.Fatalf("journal not truncated to last good boundary: %d vs %d", fileSize(t, dir), bounds[1])
	}
}

// TestEmptyAndGarbageJournals: an empty journal opens clean; a journal
// that is pure garbage recovers to zero records without panicking.
func TestEmptyAndGarbageJournals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("empty journal has %d records", s.Len())
	}
	s.Close()

	garbage := t.TempDir()
	if err := os.WriteFile(journalPath(garbage), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	reg := metrics.New()
	s2, err := Open(garbage, Config{Metrics: reg})
	if err != nil {
		t.Fatalf("Open garbage: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 0 || reg.Counter(MetricCorrupt).Value() != 1 {
		t.Fatalf("garbage journal: len=%d corrupt=%d, want 0 and 1",
			s2.Len(), reg.Counter(MetricCorrupt).Value())
	}
	if err := s2.Put("fresh", "test", 1, Meta{}); err != nil {
		t.Fatalf("Put after garbage recovery: %v", err)
	}
}
