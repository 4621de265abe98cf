package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// Segment files carry the result journal, split at a size threshold so
// memory, replay, and compaction all stop scaling with everything ever
// written. A store directory holds:
//
//	seg-<id>-<gen>.vmat   journal segments (CRC-framed records, journal.go)
//	MANIFEST.vmat         replay order + next id (manifest.go)
//	index.snap            index snapshot for fast reopen (snapshot.go)
//	control.wal           control-plane WAL (wal.go)
//
// The last manifest entry is the active segment — the only file ever
// appended to. Everything before it is sealed and immutable, which is
// what lets the compactor read cold segments without locks and what
// makes an index snapshot's coverage of them permanent.
//
// Naming: <id> is the segment's logical position (ids strictly increase
// with creation order), <gen> its rewrite generation. A compaction
// merging the sealed prefix writes its output as the first input's id
// with the generation bumped, so sorting by (id, gen) always yields a
// correct replay order even if the manifest is lost — lower generations
// of an id and any surviving later inputs replay as harmless duplicates
// of the merged output (first-write-wins absorbs them).

// segPattern matches segment files; see segName.
const segPattern = "seg-*.vmat"

// segName renders a segment file name from its id and generation.
func segName(id, gen int64) string {
	return fmt.Sprintf("seg-%08d-%04d.vmat", id, gen)
}

// parseSegName extracts (id, gen) from a segment file name; ok=false
// for anything that does not look like one.
func parseSegName(name string) (id, gen int64, ok bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".vmat") {
		return 0, 0, false
	}
	mid := name[len("seg-") : len(name)-len(".vmat")]
	dash := strings.IndexByte(mid, '-')
	if dash < 0 {
		return 0, 0, false
	}
	id, err1 := strconv.ParseInt(mid[:dash], 10, 64)
	gen, err2 := strconv.ParseInt(mid[dash+1:], 10, 64)
	if err1 != nil || err2 != nil || id < 1 || gen < 1 {
		return 0, 0, false
	}
	return id, gen, true
}

// segment is one open journal segment file. size and the accounting
// fields are atomics: appends mutate them under the store's append
// lock, the compactor swaps whole segments under the segment write
// lock, and Status reads them with no lock at all.
type segment struct {
	seq  int64 // runtime handle identity (recordRef.seg); unique per open file
	id   int64
	gen  int64
	f    *os.File
	path string

	size        atomic.Int64 // current byte length
	liveBytes   atomic.Int64
	deadBytes   atomic.Int64 // superseded records, tombstones, compaction leftovers
	liveRecords atomic.Int64
	deadRecords atomic.Int64
}

// openSegment opens (creating if needed) the segment file for (id, gen)
// in dir.
func openSegment(dir string, seq, id, gen int64) (*segment, error) {
	path := filepath.Join(dir, segName(id, gen))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat segment %s: %w", path, err)
	}
	sg := &segment{seq: seq, id: id, gen: gen, f: f, path: path}
	sg.size.Store(fi.Size())
	return sg, nil
}

// recordDead moves n bytes / one record from live to dead accounting.
func (sg *segment) recordDead(n int64) {
	sg.liveBytes.Add(-n)
	sg.deadBytes.Add(n)
	sg.liveRecords.Add(-1)
	sg.deadRecords.Add(1)
}

// addLive accounts one appended (or replayed) live record.
func (sg *segment) addLive(n int64) {
	sg.liveBytes.Add(n)
	sg.liveRecords.Add(1)
}

// addDead accounts one record that is dead on arrival (a tombstone, a
// lost-race duplicate, or a replayed superseded record).
func (sg *segment) addDead(n int64) {
	sg.deadBytes.Add(n)
	sg.deadRecords.Add(1)
}

// replaceFile atomically replaces path with data: write path+".tmp",
// fsync it, rename it over path, fsync the directory. A crash leaves
// the old file or the new one, never a mix. renamed reports whether
// path now names the new file, which it does when only the directory
// sync failed.
func replaceFile(path string, data []byte) (renamed bool, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: create %s: %w", filepath.Base(tmp), err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("store: replace %s: %w", filepath.Base(path), err)
	}
	return true, syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed or just-created file's
// directory entry is durable — the other half of tmp+rename atomicity.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
