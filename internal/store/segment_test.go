package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestStatusAccounting checks the numbers /healthz shows are grounded:
// the reported bytes are the segment files' size on disk, and the
// gauges agree with Status.
func TestStatusAccounting(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg, Metrics: reg})
	defer s.Close()
	putN(t, s, 20, "acct")

	st := s.Status()
	files, err := filepath.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		t.Fatal(err)
	}
	var fileTotal int64
	for _, p := range files {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		fileTotal += fi.Size()
	}
	if st.Bytes != fileTotal || len(files) != st.Segments {
		t.Fatalf("status reports %d bytes in %d segments, disk has %d bytes in %d files", st.Bytes, st.Segments, fileTotal, len(files))
	}
	// The literal pins the exported name: a gauge, so no _total suffix.
	if g := reg.Gauge("store_segments").Value(); int(g) != st.Segments {
		t.Fatalf("store_segments gauge %d != status %d", g, st.Segments)
	}
	if g := reg.Gauge(MetricEntries).Value(); g != st.Entries || g != 20 {
		t.Fatalf("entries gauge %d, status %d, want 20", g, st.Entries)
	}
}

// TestConcurrentUseAcrossRolls writes while readers read through a
// two-entry cache and snapshots are taken, at a threshold that rolls
// the active segment every few puts: no Get may fail and every key
// must land.
func TestConcurrentUseAcrossRolls(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Config{SegmentBytes: tinySeg, CacheEntries: 2})
	want := putN(t, s, 40, "c")

	done := make(chan error, 3)
	go func() {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("live-%03d", i)
			if err := s.Put(k, "test", k, Meta{}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 20; i++ {
			for k := range want {
				if _, ok, err := s.Get(k); err != nil || !ok {
					done <- fmt.Errorf("Get(%s) during rolls: ok=%v err=%v", k, ok, err)
					return
				}
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 5; i++ {
			if err := s.Snapshot(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("live-%03d", i)
		want[k] = k
	}
	checkAll(t, s, want)
}

// TestKillMidCompaction opens the layouts an earlier build's compactor
// left when killed between two of its durable steps. That compactor
// merged the sealed prefix into seg-<first id>-<first gen+1>.vmat: it
// wrote the output to a temp file, renamed it into place, committed a
// manifest listing it in place of its inputs, then deleted the inputs.
// Open must keep every record, delete the debris, the superseded input
// and the manifest, and leave one segment per id.
func TestKillMidCompaction(t *testing.T) {
	for _, stage := range []string{"output-written", "output-renamed", "manifest-committed", "mid-delete"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
			want := putN(t, s, 40, "c")
			s.closeSegments() // killed: no snapshot
			files, err := listSegments(dir)
			if err != nil || len(files) < 3 {
				t.Fatalf("segments %v, err %v: want at least two sealed segments", files, err)
			}
			sealed := files[:len(files)-1]
			// With nothing deleted, the merged output is the sealed
			// segments back to back.
			var merged []byte
			for _, f := range sealed {
				b, err := os.ReadFile(filepath.Join(dir, segName(f.id, f.gen)))
				if err != nil {
					t.Fatal(err)
				}
				merged = append(merged, b...)
			}
			outPath := filepath.Join(dir, segName(sealed[0].id, sealed[0].gen+1))
			if stage == "output-written" {
				outPath += ".tmp"
			}
			if err := os.WriteFile(outPath, merged, 0o644); err != nil {
				t.Fatal(err)
			}
			if stage == "manifest-committed" || stage == "mid-delete" {
				// This build never reads the manifest, only deletes it.
				if err := os.WriteFile(filepath.Join(dir, legacyManifest), []byte("VMM1 earlier build"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if stage == "mid-delete" {
				if err := os.Remove(filepath.Join(dir, segName(sealed[0].id, sealed[0].gen))); err != nil {
					t.Fatal(err)
				}
			}

			s2 := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
			defer s2.Close()
			checkAll(t, s2, want)
			debris, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if _, err := os.Stat(filepath.Join(dir, legacyManifest)); err == nil {
				debris = append(debris, legacyManifest)
			}
			if len(debris) != 0 {
				t.Fatalf("debris after recovery: %v", debris)
			}
			after, _ := listSegments(dir)
			order, superseded, err := layout(after)
			if err != nil || len(superseded) != 0 || len(order) != len(files) || s2.Status().Segments != len(files) {
				t.Fatalf("disk holds segments %v (err %v), store has %d, want one per id of %v", after, err, s2.Status().Segments, files)
			}
			if err := s2.Put("post-crash", "test", "ok", Meta{}); err != nil {
				t.Fatalf("Put after crash recovery: %v", err)
			}
		})
	}
}

// TestLostSegmentFailsOpen deletes a sealed segment: the names show the
// gap, so Open fails without deleting anything and Verify names the
// lost file. A gap right after a segment of generation > 1 is an
// earlier build's merge, not a loss (the datadir-v1 shape).
func TestLostSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	putN(t, s, 40, "lost")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := listSegments(dir)
	if err != nil || len(files) < 3 {
		t.Fatalf("segments %v, err %v: want at least two sealed segments", files, err)
	}
	lost := segName(2, 1)
	if err := os.Remove(filepath.Join(dir, lost)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyManifest), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadDir(dir)
	if _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), lost) || !strings.Contains(err.Error(), "run vmat-store verify") {
		t.Fatalf("Open with %s lost: err %v, want it named", lost, err)
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Fatalf("failed Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), lost) {
		t.Fatalf("verify problems %q, want %s named", rep.Problems, lost)
	}

	// The same gap behind a merged segment is the shape an earlier
	// build's compactor left: it opens, and keeps the ids it had.
	if err := os.Rename(filepath.Join(dir, segName(1, 1)), filepath.Join(dir, segName(1, 2))); err != nil {
		t.Fatal(err)
	}
	if rep, err := Verify(dir); err != nil || !rep.OK() {
		t.Fatalf("verify of a merged layout: %+v, %v", rep, err)
	}
	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	if got := s2.Status().Segments; got != len(files)-1 {
		t.Fatalf("merged layout opened %d segments, want %d", got, len(files)-1)
	}
}

// TestNoManifest: no roll writes a MANIFEST.vmat, and Open deletes one
// an earlier build left, so that build, run again, rebuilds its layout
// from the names rather than delete the segments its stale list omits.
func TestNoManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, legacyManifest)
	assertNone := func(when string) {
		t.Helper()
		if _, err := os.Stat(manifest); !os.IsNotExist(err) {
			t.Fatalf("%s: %s exists (stat err %v)", when, legacyManifest, err)
		}
	}
	s := mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	want := putN(t, s, 20, "m")
	if s.Status().Segments < 3 {
		t.Fatalf("only %d segments: want rolls", s.Status().Segments)
	}
	assertNone("after rolls")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte("a stale manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Config{SegmentBytes: tinySeg})
	defer s.Close()
	assertNone("after reopen")
	for k, v := range putN(t, s, 20, "n") {
		want[k] = v
	}
	assertNone("after more rolls")
	checkAll(t, s, want)
}
