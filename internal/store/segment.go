package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Segment files carry the result journal, split at a size threshold so
// no one file grows with everything ever written. A store directory
// holds:
//
//	seg-<id>-<gen>.vmat   journal segments (CRC-framed records, journal.go)
//	index.snap            index snapshot for fast reopen (snapshot.go)
//	control.wal           control-plane WAL (wal.go)
//
// The file names are the layout: segments replay in (id, gen) order and
// the last is the active segment — the only file ever appended to.
// Everything before it is sealed and immutable, which is what makes an
// index snapshot's coverage of them permanent. A roll creates the next
// id's file and fsyncs the directory, so nothing else records the set.
//
// Naming: <id> is the segment's logical position (ids strictly increase
// with creation order), <gen> its rewrite generation. This build writes
// only generation 1. Earlier builds had a compactor that merged the
// sealed prefix into the first input's id with the generation bumped,
// and a MANIFEST.vmat listing the layout, which Open now deletes. So
// their data dirs can hold higher generations, and (id, gen) order is
// still a correct replay order: a lower generation of an id is
// superseded and deleted, and any surviving later input replays as a
// harmless duplicate of the merged output (first-write-wins absorbs it).
// The names also show a lost segment: ids start at 1 and run
// consecutively, except right after a segment of generation > 1, whose
// merge absorbed the ids that followed it.

// segPattern matches segment files; see segName.
const segPattern = "seg-*.vmat"

// legacyManifest is the layout manifest earlier builds kept beside the
// segments. Open deletes it, so that a downgraded build rebuilds its
// layout from the file names rather than trust a stale list.
const legacyManifest = "MANIFEST.vmat"

// segRef names one segment file.
type segRef struct{ id, gen int64 }

// segName renders a segment file name from its id and generation.
func segName(id, gen int64) string {
	return fmt.Sprintf("seg-%08d-%04d.vmat", id, gen)
}

// parseSegName extracts (id, gen) from a segment file name; ok=false
// for anything segName would not have written.
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
	if err1 != nil || err2 != nil || id < 1 || gen < 1 || segName(id, gen) != name {
		return 0, 0, false
	}
	return id, gen, true
}

// listSegments lists the segment files in dir in (id, gen) order.
func listSegments(dir string) ([]segRef, error) {
	names, err := filepath.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("store: scan segments: %w", err)
	}
	var segs []segRef
	for _, p := range names {
		if id, gen, ok := parseSegName(filepath.Base(p)); ok {
			segs = append(segs, segRef{id, gen})
		}
	}
	slices.SortFunc(segs, func(a, b segRef) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.gen, b.gen))
	})
	return segs, nil
}

// layout derives the replay order from files, sorted by (id, gen): the
// highest generation of each id, in id order. It returns the lower
// generations apart, for Open to delete, and an error naming the first
// missing segment, if any (see the naming rules above).
func layout(files []segRef) (order, superseded []segRef, err error) {
	for _, f := range files {
		if n := len(order); n > 0 && order[n-1].id == f.id {
			superseded = append(superseded, order[n-1])
			order[n-1] = f
			continue
		}
		order = append(order, f)
	}
	next, strict := int64(1), true // the id that comes next, if it must
	for _, f := range order {
		if strict && f.id != next {
			return order, superseded, fmt.Errorf("segment %s is missing", segName(next, 1))
		}
		next, strict = f.id+1, f.gen == 1
	}
	return order, superseded, nil
}

// segment is one open journal segment file. size is atomic: appends
// advance it under the store's append lock, and Status reads it with
// no lock at all.
type segment struct {
	id   int64
	gen  int64
	f    *os.File
	path string
	size atomic.Int64 // current byte length
}

// openSegment opens (creating if needed) the segment file for (id, gen)
// in dir.
func openSegment(dir string, id, gen int64) (*segment, error) {
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
	sg := &segment{id: id, gen: gen, f: f, path: path}
	sg.size.Store(fi.Size())
	return sg, nil
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
