package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// FuzzJournalReplay writes arbitrary bytes as the only segment file of
// a data dir and opens the store over it, which bootstraps a manifest
// and replays the segment: replay must never panic, must recover to some
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

// FuzzManifestDecode feeds arbitrary bytes to the manifest decoder:
// errors, never panics, and anything it accepts is internally
// consistent and re-encodes stably.
func FuzzManifestDecode(f *testing.F) {
	good, err := encodeManifest(&manifest{Version: manifestVersion, Generation: 3, NextID: 4,
		Segments: []manifestSegment{{ID: 1, Gen: 2}, {ID: 3, Gen: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-4])
	f.Add([]byte("VMM1 but nothing that parses"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			return
		}
		if len(m.Segments) == 0 {
			t.Fatal("decoder accepted a manifest with no segments")
		}
		re, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if _, err := decodeManifest(re); err != nil {
			t.Fatalf("accepted manifest is not round-trip stable: %v", err)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the index-snapshot
// decoder: errors, never panics, and every accepted ref stays inside
// its segment's covered range (the invariant reopen relies on instead
// of re-checking each record).
func FuzzSnapshotDecode(f *testing.F) {
	good, err := encodeSnapshot(&snapshot{
		generation: 2, unixTime: 1700000000,
		segs: []snapSegment{{id: 1, gen: 1, covered: 300}},
		keys: []snapKey{{key: "abc", segIdx: 0, off: 0, length: 150}, {key: "def", segIdx: 0, off: 150, length: 150}},
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
// real segment layout: Open must never panic, and must either succeed
// (store fully usable) or fail cleanly in a way that deleting the
// manifest recovers from.
func FuzzManifestOpen(f *testing.F) {
	goodManifest, err := encodeManifest(&manifest{Version: manifestVersion, Generation: 1, NextID: 2,
		Segments: []manifestSegment{{ID: 1, Gen: 1}}})
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
		if err := os.WriteFile(filepath.Join(dir, ManifestName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		// A mutated manifest may claim coverage the layout can't back;
		// the stale snapshot must not be allowed to mask that.
		os.Remove(filepath.Join(dir, SnapshotName))
		s, err := Open(dir, Config{})
		if err != nil {
			// Clean failure (e.g. a valid manifest naming segments that
			// do not exist). Removing the manifest must recover.
			os.Remove(filepath.Join(dir, ManifestName))
			s2, err := Open(dir, Config{})
			if err != nil {
				t.Fatalf("Open still fails after manifest removal: %v", err)
			}
			s2.Close()
			return
		}
		defer s.Close()
		if err := s.Put("fuzz-probe", "test", 1, Meta{}); err != nil {
			t.Fatalf("store unusable after manifest recovery: %v", err)
		}
		if _, ok, err := s.Get("fuzz-probe"); !ok || err != nil {
			t.Fatalf("probe unreadable: ok=%v err=%v", ok, err)
		}
	})
}
