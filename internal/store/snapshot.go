package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/frame"
)

// The index snapshot makes reopen snapshot-load + tail-replay instead
// of full-journal replay. It is a point-in-time capture of the index,
// stamped with exactly how much of each segment it covers: sealed
// segments fully, the then-active segment up to its append offset. On
// open, if the covered segments still prefix the layout (rolls after
// the snapshot only append new segments, so they keep it valid),
// the store loads the snapshot and replays only the bytes past each
// watermark. The snapshot is a pure cache: corrupt, stale, or missing
// just means a full replay, never an error. A snapshot of another
// version (version 1 also carried per-segment live/dead accounting) is
// stale: logged once, replayed in full, and rewritten on the next
// snapshot.
//
// Encoding (inside one CRC frame, magic "VMS1", little-endian):
//
//	u32 version
//	u64 zero (an earlier build's manifest generation; ignored)
//	u64 unix seconds at capture (drives store_snapshot_age_seconds)
//	u32 segment count; per segment:
//	    u64 id, u64 gen, u64 covered bytes
//	u64 key count; per key:
//	    u16 key length, key bytes, u32 segment index, u64 offset, u32 frame length
//
// The binary layout is what buys the reopen speedup: loading is one
// read, one CRC pass, and a allocation-light parse (keys are substrings
// of a single backing string), against a JSON unmarshal per record on
// the replay path.

// SnapshotName is the index snapshot inside the store directory.
// Exported so operators (and tests) can find it.
const SnapshotName = "index.snap"

var snapshotMagic = [4]byte{'V', 'M', 'S', '1'}

const snapshotVersion = 2

// errSnapshotVersion reports a well-formed snapshot of another version.
var errSnapshotVersion = errors.New("unsupported snapshot version")

// snapSegment is one covered segment in the snapshot, in replay order.
type snapSegment struct {
	id, gen int64
	covered int64
}

// snapshot is a decoded index snapshot.
type snapshot struct {
	unixTime int64
	segs     []snapSegment
	keys     []snapKey
}

type snapKey struct {
	key    string
	segIdx uint32
	off    int64
	length int64
}

// encodeSnapshot renders the snapshot payload and frames it.
func encodeSnapshot(sn *snapshot) ([]byte, error) {
	size := 4 + 8 + 8 + 4 + len(sn.segs)*24 + 8
	for _, k := range sn.keys {
		size += 2 + len(k.key) + 4 + 8 + 4
	}
	payload := make([]byte, 0, size)
	var scratch [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		payload = append(payload, scratch[:4]...)
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		payload = append(payload, scratch[:8]...)
	}
	u32(snapshotVersion)
	u64(0)
	u64(uint64(sn.unixTime))
	u32(uint32(len(sn.segs)))
	for _, sg := range sn.segs {
		u64(uint64(sg.id))
		u64(uint64(sg.gen))
		u64(uint64(sg.covered))
	}
	u64(uint64(len(sn.keys)))
	for _, k := range sn.keys {
		if len(k.key) > 0xffff {
			return nil, fmt.Errorf("store: snapshot key longer than 64KiB")
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(k.key)))
		payload = append(payload, scratch[:2]...)
		payload = append(payload, k.key...)
		u32(k.segIdx)
		u64(uint64(k.off))
		u32(uint32(k.length))
	}
	return appendFrame(nil, snapshotMagic, payload)
}

// decodeSnapshot parses snapshot bytes. Any structural problem is an
// error — the caller treats every error as "no snapshot" and falls back
// to full replay. Hostile bytes must never panic (fuzz-enforced).
func decodeSnapshot(b []byte) (*snapshot, error) {
	payload, err := frame.Decode(b, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	// Numeric fields parse straight from the payload slice; keys become
	// substrings of one backing string, so the parse allocates nothing
	// per entry beyond the index structures themselves.
	s := string(payload)
	pos := 0
	need := func(n int) error {
		if len(s)-pos < n {
			return fmt.Errorf("snapshot truncated at byte %d", pos)
		}
		return nil
	}
	ru32 := func() uint32 {
		v := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		return v
	}
	ru64 := func() uint64 {
		v := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		return v
	}
	if err := need(4 + 8 + 8 + 4); err != nil {
		return nil, err
	}
	if v := ru32(); v != snapshotVersion {
		return nil, fmt.Errorf("%w %d, this build reads %d", errSnapshotVersion, v, snapshotVersion)
	}
	pos += 8 // the ignored generation word
	sn := &snapshot{unixTime: int64(ru64())}
	nSegs := int(ru32())
	if nSegs < 0 || nSegs > 1<<20 {
		return nil, fmt.Errorf("implausible snapshot segment count %d", nSegs)
	}
	for i := 0; i < nSegs; i++ {
		if err := need(24); err != nil {
			return nil, err
		}
		sg := snapSegment{id: int64(ru64()), gen: int64(ru64()), covered: int64(ru64())}
		if sg.id < 1 || sg.gen < 1 || sg.covered < 0 {
			return nil, fmt.Errorf("snapshot segment %d out of range", i)
		}
		sn.segs = append(sn.segs, sg)
	}
	if err := need(8); err != nil {
		return nil, err
	}
	nKeys := int64(ru64())
	if nKeys < 0 || nKeys > int64(len(s)) {
		return nil, fmt.Errorf("implausible snapshot key count %d", nKeys)
	}
	sn.keys = make([]snapKey, 0, nKeys)
	for i := int64(0); i < nKeys; i++ {
		if err := need(2); err != nil {
			return nil, err
		}
		kl := int(binary.LittleEndian.Uint16(payload[pos:]))
		pos += 2
		if err := need(kl + 4 + 8 + 4); err != nil {
			return nil, err
		}
		key := s[pos : pos+kl]
		pos += kl
		segIdx := ru32()
		off := int64(ru64())
		length := int64(ru32())
		if int(segIdx) >= len(sn.segs) {
			return nil, fmt.Errorf("snapshot key %d references segment %d of %d", i, segIdx, len(sn.segs))
		}
		if key == "" || length < frame.HeaderLen || off < 0 || off+length > sn.segs[segIdx].covered {
			return nil, fmt.Errorf("snapshot key %d has an out-of-coverage record ref", i)
		}
		sn.keys = append(sn.keys, snapKey{key: key, segIdx: segIdx, off: off, length: length})
	}
	if pos != len(s) {
		return nil, fmt.Errorf("snapshot has %d trailing bytes", len(s)-pos)
	}
	return sn, nil
}

// writeSnapshotFile atomically replaces dir's snapshot.
func writeSnapshotFile(dir string, sn *snapshot) error {
	rec, err := encodeSnapshot(sn)
	if err != nil {
		return err
	}
	_, err = replaceFile(filepath.Join(dir, SnapshotName), rec)
	return err
}

// loadSnapshotFile reads and decodes dir's snapshot. A missing file
// returns (nil, nil); unreadable or undecodable bytes return an error,
// which the caller logs before replaying in full.
func loadSnapshotFile(dir string) (*snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(b)
}

// captureSnapshot builds a snapshot of the store's current state. The
// caller must hold appendMu (no records may land while the capture
// runs) — readers stay unblocked apart from shard-at-a-time read locks
// during the index walk.
func (s *Store) captureSnapshot() *snapshot {
	s.segMu.RLock()
	sn := &snapshot{unixTime: time.Now().Unix()}
	segIdx := make(map[int64]uint32, len(s.order))
	for i, id := range s.order {
		sg := s.segs[id]
		segIdx[id] = uint32(i)
		sn.segs = append(sn.segs, snapSegment{id: id, gen: sg.gen, covered: sg.size.Load()})
	}
	s.segMu.RUnlock()
	sn.keys = make([]snapKey, 0, s.idx.len())
	s.idx.walk(func(key string, ref recordRef) {
		idx, ok := segIdx[ref.seg]
		if !ok {
			return // unreachable: every ref points at an open segment
		}
		sn.keys = append(sn.keys, snapKey{key: key, segIdx: idx, off: ref.off, length: ref.length})
	})
	return sn
}
