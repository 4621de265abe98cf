package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

// FuzzJournalReplay writes arbitrary bytes as the only segment file of
// a data dir and opens the store over it, which replays the segment:
// replay must never panic, must recover to some
// clean prefix (counting the corruption), and must leave the store
// usable — a Put and a Get after recovery behave normally. This is the
// torn/hostile-journal contract the server's crash recovery depends on.
func FuzzJournalReplay(f *testing.F) {
	good, err := encodeRecord(&Entry{Key: "k1", Kind: "scenario", Value: json.RawMessage(`[1,2]`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])                             // torn tail
	f.Add(append(append([]byte{}, good...), good[:7]...)) // one good, one torn
	f.Add([]byte("VMR1garbage after the magic bytes"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1, 1)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("hostile journal made Open fail: %v", err)
		}
		defer s.Close()
		if err := s.Put("fuzz-probe", "scenario", []int{1}, Meta{}); err != nil {
			t.Fatalf("store unusable after recovery: %v", err)
		}
		if _, ok, err := s.Get("fuzz-probe"); !ok || err != nil {
			t.Fatalf("probe entry unreadable after recovery: ok=%v err=%v", ok, err)
		}
	})
}

// FuzzWALReplay does the same for the control-plane WAL: arbitrary
// bytes must replay without panicking, yield only complete checksummed
// records, and leave the log appendable.
func FuzzWALReplay(f *testing.F) {
	frame := func(r WALRecord) []byte {
		payload, _ := json.Marshal(&r)
		b, err := appendFrame(nil, walMagic, payload)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := frame(WALRecord{Kind: RecSweepOpened, Sweep: "s000001", Grid: json.RawMessage(`{"n":[30]}`)})
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add(append(append([]byte{}, good...), []byte("VMC1")...))
	f.Add([]byte("VMC1 but nothing that parses"))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := OpenWAL(dir, WALConfig{})
		if err != nil {
			t.Fatalf("hostile WAL made OpenWAL fail: %v", err)
		}
		defer w.Close()
		for i, r := range recs {
			if r.Kind == "" {
				t.Fatalf("replayed record %d has no kind: %+v", i, r)
			}
		}
		if err := w.Append(WALRecord{Kind: RecUnitEnqueued, Key: "probe"}); err != nil {
			t.Fatalf("WAL unappendable after recovery: %v", err)
		}
	})
}

// FuzzDecodeRecord feeds arbitrary bytes to the single-record decoder
// used by in-place Get reads: errors, never panics, and anything it
// accepts round-trips through encodeRecord.
func FuzzDecodeRecord(f *testing.F) {
	good, err := encodeRecord(&Entry{Key: "k", Value: json.RawMessage(`{"a":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:5])
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeRecord(b)
		if err != nil {
			return
		}
		re, err := encodeRecord(&e)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if _, err := decodeRecord(re); err != nil {
			t.Fatalf("accepted record is not round-trip stable: %v", err)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the index-snapshot
// decoder: errors, never panics, and every accepted ref stays inside
// its segment's covered range (the invariant reopen relies on instead
// of re-checking each record).
func FuzzSnapshotDecode(f *testing.F) {
	good, err := encodeSnapshot(&snapshot{
		unixTime: 1700000000,
		segs:     []snapSegment{{id: 1, gen: 1, covered: 300}},
		keys:     []snapKey{{key: "abc", segIdx: 0, off: 0, length: 150}, {key: "def", segIdx: 0, off: 150, length: 150}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	f.Add([]byte("VMS1 hostile"))
	f.Fuzz(func(t *testing.T, b []byte) {
		sn, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		for i, k := range sn.keys {
			if int(k.segIdx) >= len(sn.segs) {
				t.Fatalf("accepted key %d references missing segment %d", i, k.segIdx)
			}
			if k.off < 0 || k.length < frame.HeaderLen || k.off+k.length > sn.segs[k.segIdx].covered {
				t.Fatalf("accepted key %d escapes coverage: %+v", i, k)
			}
		}
	})
}

// FuzzManifestOpen drops arbitrary bytes in as MANIFEST.vmat over a
// real segment layout, as an earlier build may have left it: Open must
// never panic and never read it, so it opens, deletes the manifest,
// keeps every stored key and leaves the store usable.
func FuzzManifestOpen(f *testing.F) {
	goodManifest, err := appendFrame(nil, [4]byte{'V', 'M', 'M', '1'},
		[]byte(`{"version":1,"generation":1,"next_id":2,"segments":[{"id":1,"gen":1}]}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(goodManifest)
	f.Add(goodManifest[:len(goodManifest)-3])
	f.Add([]byte(`VMM1{"version":1,"next_id":9,"segments":[{"id":7,"gen":1}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		seed := mustOpen(t, dir, Config{})
		if err := seed.Put("seeded", "test", "value", Meta{}); err != nil {
			t.Fatal(err)
		}
		seed.Close()
		if err := os.WriteFile(filepath.Join(dir, legacyManifest), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("manifest bytes made Open fail: %v", err)
		}
		defer s.Close()
		if _, err := os.Stat(filepath.Join(dir, legacyManifest)); !os.IsNotExist(err) {
			t.Fatalf("open left %s in place (stat err %v)", legacyManifest, err)
		}
		if _, ok, err := s.Get("seeded"); !ok || err != nil {
			t.Fatalf("seeded entry lost: ok=%v err=%v", ok, err)
		}
		if err := s.Put("fuzz-probe", "test", 1, Meta{}); err != nil {
			t.Fatalf("store unusable after dropping the manifest: %v", err)
		}
		if _, ok, err := s.Get("fuzz-probe"); !ok || err != nil {
			t.Fatalf("probe unreadable: ok=%v err=%v", ok, err)
		}
	})
}

// FuzzSegmentLayout builds a data dir from arbitrary segment file
// names: well-formed ones drawn from (id, gen) byte pairs, and any
// names at all from a '/'-separated list. Each file holds one record.
// Open must never panic and may fail only where Verify, run first,
// reports a problem; a dir it opened and closed again verifies clean.
func FuzzSegmentLayout(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{1, 1, 2, 1, 3, 1}, "")                                   // a clean layout
	f.Add([]byte{1, 1, 3, 1}, "")                                         // seg 2 lost
	f.Add([]byte{1, 2, 3, 1, 4, 1, 5, 1}, "MANIFEST.vmat")                // datadir-v1's shape
	f.Add([]byte{2, 1, 3, 1}, "index.snap")                               // seg 1 lost
	f.Add([]byte{1, 1, 1, 2, 2, 1}, "seg-00000003-0001.vmat.tmp")         // superseded gen, tmp debris
	f.Add([]byte{1, 1}, "seg-1-1.vmat/seg-00000000-0001.vmat/seg-x.vmat") // ill-formed names
	f.Fuzz(func(t *testing.T, pairs []byte, extra string) {
		var names []string
		for i := 0; i+1 < len(pairs); i += 2 {
			names = append(names, segName(int64(pairs[i]%8)+1, int64(pairs[i+1]%3)+1))
		}
		for _, name := range strings.Split(extra, "/") {
			if name != "" && name != "." && name != ".." && len(name) < 100 && !strings.ContainsRune(name, 0) {
				names = append(names, name)
			}
		}
		dir := t.TempDir()
		for _, name := range names {
			rec, err := encodeRecord(&Entry{Key: name, Value: json.RawMessage(`1`)})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), rec, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		s, err := Open(dir, Config{})
		if err != nil {
			if rep.OK() {
				t.Fatalf("Open failed (%v) on a dir Verify passed", err)
			}
			return
		}
		if err := s.Put("fuzz-probe", "test", 1, Meta{}); err != nil {
			t.Fatalf("store unusable: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if rep, err := Verify(dir); err != nil || !rep.OK() {
			t.Fatalf("Verify after Open and Close: %+v, %v", rep, err)
		}
	})
}
