package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/datadir from the current store")

// fixtureDir is a data dir checked in as written by an earlier build.
// Every existing data dir must keep opening unchanged, so the files the
// current code writes for the same operations must match it byte for
// byte (the index snapshot apart from its capture time).
const fixtureDir = "testdata/datadir"

// fixture is what writeFixture leaves behind: the stored entries and
// the control WAL as it replays.
type fixture struct {
	entries map[string]string
	wal     []WALRecord
}

// writeFixture runs a fixed sequence of operations into dir. One store
// session rolls segments and closes; a second reopens, rolls again and
// closes. The control WAL is compacted mid-way and appended to after.
func writeFixture(t *testing.T, dir string) fixture {
	t.Helper()
	fx := fixture{entries: map[string]string{}}
	session := func(keys ...string) {
		s, err := Open(dir, Config{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			v := "value of " + k
			if err := s.Put(k, "test", v, Meta{DurationMicros: int64(len(fx.entries) + 1), Version: "fixture"}); err != nil {
				t.Fatal(err)
			}
			fx.entries[k] = v
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	session("fx-a", "fx-b", "fx-c", "fx-d", "fx-e", "fx-f", "fx-g", "fx-h")
	session("fx-i", "fx-j", "fx-k")

	w, _, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opened := WALRecord{Kind: RecSweepOpened, Sweep: "s000001", Grid: json.RawMessage(`{"n":[30,40]}`)}
	pending := WALRecord{Kind: RecUnitEnqueued, Sweep: "s000001", Key: "k2"}
	appendWAL := func(recs ...WALRecord) {
		if err := w.Append(recs...); err != nil {
			t.Fatal(err)
		}
	}
	appendWAL(opened)
	appendWAL(WALRecord{Kind: RecUnitEnqueued, Sweep: "s000001", Key: "k1"}, pending)
	appendWAL(WALRecord{Kind: RecUnitCompleted, Sweep: "s000001", Key: "k1", Source: "executed"})
	if err := w.Compact([]WALRecord{opened, pending}); err != nil {
		t.Fatal(err)
	}
	after := []WALRecord{
		{Kind: RecUnitCompleted, Sweep: "s000001", Key: "k2", Error: "engine failed"},
		{Kind: RecSweepClosed, Sweep: "s000001", Status: "done"},
	}
	appendWAL(after...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fx.wal = append([]WALRecord{opened, pending}, after...)
	return fx
}

// copyFiles copies the regular files of src into dst.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openFixture opens a copy of the checked-in data dir src, which must
// verify clean, open with no notice and read back fx, and returns the
// copy with the store and WAL closed again.
func openFixture(t *testing.T, src string, fx fixture) string {
	t.Helper()
	dir := t.TempDir()
	copyFiles(t, src, dir)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Warnings) > 0 {
		t.Fatalf("verify: warnings %q, problems %q", rep.Warnings, rep.Problems)
	}
	var notices []string
	logf := func(format string, args ...any) { notices = append(notices, fmt.Sprintf(format, args...)) }
	reg := metrics.New()
	s, err := Open(dir, Config{Metrics: reg, Log: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkAll(t, s, fx.entries)
	w, recs, err := OpenWAL(dir, WALConfig{Metrics: reg, Log: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(recs, fx.wal) {
		t.Fatalf("WAL replayed %+v, want %+v", recs, fx.wal)
	}
	if len(notices) > 0 || reg.Counter(MetricCorrupt).Value() != 0 || reg.Counter(MetricWALCorrupt).Value() != 0 {
		t.Fatalf("opening %s logged %q", src, notices)
	}
	return dir
}

func TestCheckedInDataDirOpensAndRewritesIdentically(t *testing.T) {
	fresh := t.TempDir()
	fx := writeFixture(t, fresh)
	if *updateGolden {
		if err := os.RemoveAll(fixtureDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyFiles(t, fresh, fixtureDir)
	}

	t.Run("opens", func(t *testing.T) {
		openFixture(t, fixtureDir, fx)
	})

	t.Run("same-bytes", func(t *testing.T) {
		want, err := os.ReadDir(fixtureDir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadDir(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("fresh dir has %d files, checked-in dir %d", len(got), len(want))
		}
		for i, e := range want {
			if got[i].Name() != e.Name() {
				t.Fatalf("file %d: fresh %s, checked-in %s", i, got[i].Name(), e.Name())
			}
			wb, err := os.ReadFile(filepath.Join(fixtureDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			gb, err := os.ReadFile(filepath.Join(fresh, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == SnapshotName {
				// Only the capture time may differ: re-stamp the fresh
				// snapshot with the checked-in one's and re-encode.
				wsn, err := decodeSnapshot(wb)
				if err != nil {
					t.Fatal(err)
				}
				gsn, err := decodeSnapshot(gb)
				if err != nil {
					t.Fatal(err)
				}
				gsn.unixTime = wsn.unixTime
				if gb, err = encodeSnapshot(gsn); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s: fresh bytes differ from the checked-in file\nfresh %x\nwant  %x", e.Name(), gb, wb)
			}
		}
	})
}

// manifestDir is the data dir writeFixture's operations left under the
// builds from 8210c05 to 01b1656, the last to keep a MANIFEST.vmat: the
// segments and WAL of fixtureDir, plus the manifest and a snapshot
// whose generation word is 4. It is never regenerated. It opens with no
// notice, and the open deletes the manifest.
const manifestDir = "testdata/datadir-v2"

func TestManifestDataDirOpens(t *testing.T) {
	fx := writeFixture(t, t.TempDir())
	if _, err := os.Stat(filepath.Join(manifestDir, legacyManifest)); err != nil {
		t.Fatalf("fixture lost its manifest: %v", err)
	}
	dir := openFixture(t, manifestDir, fx)
	if _, err := os.Stat(filepath.Join(dir, legacyManifest)); !os.IsNotExist(err) {
		t.Fatalf("open left %s in place (stat err %v)", legacyManifest, err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Warnings) > 0 || rep.Keys != int64(len(fx.entries)) {
		t.Fatalf("verify after open: %d keys, warnings %q, problems %q", rep.Keys, rep.Warnings, rep.Problems)
	}
}

// legacyDir is a data dir written by the build at 474f2df, the last
// with a compactor and version-1 index snapshots, through what its
// binaries did to a data dir: puts of legacy-00..07 at a 256-byte
// segment threshold and a clean close; `vmat-store compact
// -store-segment-bytes 256`, which merged the sealed segments into
// seg-00000001-0002.vmat; puts of legacy-08..11 and a clean close (each
// close wrote a version-1 snapshot); then a control WAL as that build's
// sweep manager and recovery wrote it, grid_key fields included.
const legacyDir = "testdata/datadir-v1"

func TestCompactedV1DataDirOpens(t *testing.T) {
	dir := t.TempDir()
	copyFiles(t, legacyDir, dir)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Records != 12 || rep.Keys != 12 {
		t.Fatalf("verify: %d records, %d keys, problems %q", rep.Records, rep.Keys, rep.Problems)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "unsupported snapshot version 1") {
		t.Fatalf("verify warnings %q, want only the snapshot version", rep.Warnings)
	}

	want := map[string]string{}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("legacy-%02d", i)
		want[k] = "value of " + k
	}
	open := func() ([]string, *Store) {
		var notices []string
		reg := metrics.New()
		s, err := Open(dir, Config{Metrics: reg, Log: func(format string, args ...any) {
			notices = append(notices, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, want)
		if c := reg.Counter(MetricCorrupt).Value(); c != 0 {
			t.Fatalf("opening the v1 dir counted %d corrupt records", c)
		}
		return notices, s
	}
	notices, s := open()
	if len(notices) != 1 || !strings.Contains(notices[0], "index snapshot stale (unsupported snapshot version 1") {
		t.Fatalf("first open logged %q, want one stale-snapshot notice", notices)
	}
	if st := s.Status(); st.Segments != 4 {
		t.Fatalf("status %+v, want 4 segments", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close wrote a current snapshot, so the next open is silent.
	if notices, s = open(); len(notices) != 0 {
		t.Fatalf("second open logged %q", notices)
	}
	s.Close()

	w, recs, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wantWAL := []WALRecord{
		{Kind: RecSweepOpened, Sweep: "s000002", Grid: json.RawMessage(`{"n":[50],"attack":["drop","junk"]}`)},
		{Kind: RecUnitCompleted, Sweep: "s000002", Key: "cell-2a", Source: "failed", Error: "max slots exceeded"},
		{Kind: RecSweepClosed, Sweep: "s000002", Status: "done"},
		{Kind: RecSweepOpened, Sweep: "s000003", Grid: json.RawMessage(`{"n":[60],"trials":2}`)},
	}
	if !reflect.DeepEqual(recs, wantWAL) {
		t.Fatalf("WAL replayed %+v, want %+v", recs, wantWAL)
	}
}
