package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/frame"
)

// Compaction merges the sealed prefix — every segment except the active
// one — into a single new segment, dropping superseded records and
// tombstones. Only the full prefix is ever compacted: with
// first-write-wins puts and tombstone deletes, replay order is
// semantics, and merging an interior range could resurrect a key whose
// tombstone lived in a segment the merge dropped. Compacting the whole
// prefix is safe because nothing replays before it: a tombstone that is
// still shadowing something has that something inside the prefix too.
//
// The output is written to a temp file, fsync'd, renamed to
// seg-<firstID>-<firstGen+1>.vmat, and only then committed into the
// manifest — so a crash at any point leaves either the old layout or
// the new one, never a mix (the unlisted survivor is deleted on the
// next open). Readers are never blocked: old segments stay open and
// readable until every index entry that pointed into them has been
// repointed at the output.

// Crash-hook stage names, in execution order. The hook (an unexported
// Store field, set only by tests) returns true to abandon compaction at
// that stage, simulating a kill between two durable steps.
const (
	compactStageOutputWritten = "output-written"     // temp file synced, not yet renamed
	compactStageOutputRenamed = "output-renamed"     // output visible, manifest still old
	compactStageSwapped       = "manifest-committed" // new layout durable, old files still present
	compactStageMidDelete     = "mid-delete"         // one old segment file already removed
)

// errCompactionAborted reports a crash-hook abort; the background loop
// treats it as silence.
var errCompactionAborted = errors.New("store: compaction aborted by crash hook")

// crash consults the test-only crash hook.
func (s *Store) crash(stage string) bool {
	return s.crashAt != nil && s.crashAt(stage)
}

// Compact merges all sealed segments into one, reclaiming dead bytes.
// It is safe to call concurrently with reads and writes; concurrent
// Compact/Snapshot/Close calls serialize. A store with fewer than two
// segments (nothing sealed) returns immediately.
func (s *Store) Compact() error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.compactLocked()
}

// compactLocked runs one compaction cycle. Caller holds maintMu.
func (s *Store) compactLocked() error {
	s.compacting.Store(true)
	defer s.compacting.Store(false)

	// Capture the sealed prefix. Segments rolled after this point stay
	// out of this cycle; they are sealed input for the next one.
	s.segMu.RLock()
	if len(s.order) < 2 {
		s.segMu.RUnlock()
		return nil
	}
	prefix := make([]*segment, len(s.order)-1)
	for i, seq := range s.order[:len(s.order)-1] {
		prefix[i] = s.segs[seq]
	}
	s.segMu.RUnlock()

	inSeqs := make(map[int64]bool, len(prefix))
	var inputBytes int64
	for _, sg := range prefix {
		inSeqs[sg.seq] = true
		inputBytes += sg.size.Load()
	}

	// Replay the prefix through a local state machine: the last
	// state-changing record per key wins within the range, and
	// tombstones drop outright — nothing earlier than the prefix exists
	// for them to shadow.
	type liveRec struct {
		segPos int
		off    int64
		length int64
	}
	state := map[string]liveRec{}
	for pos, sg := range prefix {
		_, reason, err := scanFile(sg.f, journalMagic, 0, func(off int64, payload []byte) error {
			var e Entry
			if jerr := json.Unmarshal(payload, &e); jerr != nil || e.Key == "" {
				return errors.New("undecodable record payload")
			}
			if e.Tomb {
				delete(state, e.Key)
				return nil
			}
			if _, dup := state[e.Key]; !dup {
				state[e.Key] = liveRec{segPos: pos, off: off, length: int64(frame.HeaderLen + len(payload))}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: compact: scan %s: %w", filepath.Base(sg.path), err)
		}
		if reason != "" {
			// Sealed segments were verified at open; damage appearing
			// now is in-place corruption. Compacting would make the
			// loss permanent, so leave the layout alone.
			s.corrupt.Inc()
			return fmt.Errorf("store: compact: %s corrupt at offset %d (%s); refusing to merge", filepath.Base(sg.path), sg.size.Load(), reason)
		}
	}

	// Write the merged output in original record order (by source
	// position, then offset) so the result is deterministic and reads
	// preserve locality.
	keep := make([]string, 0, len(state))
	for key := range state {
		keep = append(keep, key)
	}
	sort.Slice(keep, func(i, j int) bool {
		a, b := state[keep[i]], state[keep[j]]
		if a.segPos != b.segPos {
			return a.segPos < b.segPos
		}
		return a.off < b.off
	})

	outName := segName(prefix[0].id, prefix[0].gen+1)
	outPath := filepath.Join(s.dir, outName)
	tmpPath := outPath + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: create %s: %w", tmpPath, err)
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	outRefs := make(map[string]recordRef, len(keep)) // seg filled in after open
	var outSize int64
	var buf []byte
	for _, key := range keep {
		r := state[key]
		if int64(cap(buf)) < r.length {
			buf = make([]byte, r.length)
		}
		b := buf[:r.length]
		if _, err := prefix[r.segPos].f.ReadAt(b, r.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: read record for %s: %w", key, err)
		}
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("store: compact: write output: %w", err)
		}
		outRefs[key] = recordRef{off: outSize, length: r.length}
		outSize += r.length
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: flush output: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: sync output: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: close output: %w", err)
	}
	if s.crash(compactStageOutputWritten) {
		return errCompactionAborted
	}
	if err := os.Rename(tmpPath, outPath); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("store: compact: publish output: %w", err)
	}
	if s.crash(compactStageOutputRenamed) {
		return errCompactionAborted
	}

	outSeg, err := openSegment(s.dir, s.nextSeq.Add(1), prefix[0].id, prefix[0].gen+1)
	if err != nil {
		os.Remove(outPath)
		return err
	}
	for _, key := range keep {
		outSeg.addLive(outRefs[key].length)
	}

	// Commit the new layout and swap the in-memory order under the
	// segment write lock (manifest commits and order changes always
	// happen together under segMu so a concurrent roll cannot interleave
	// its own commit). Old segments stay in s.segs — still readable —
	// until the index has been repointed.
	s.segMu.Lock()
	newOrder := []int64{outSeg.seq}
	segsList := []manifestSegment{{ID: outSeg.id, Gen: outSeg.gen}}
	for _, seq := range s.order {
		if inSeqs[seq] {
			continue
		}
		newOrder = append(newOrder, seq)
		sg := s.segs[seq]
		segsList = append(segsList, manifestSegment{ID: sg.id, Gen: sg.gen})
	}
	m := &manifest{Version: manifestVersion, Generation: s.generation + 1, NextID: s.nextID, Segments: segsList}
	if err := commitManifest(s.dir, m); err != nil {
		s.segMu.Unlock()
		outSeg.f.Close()
		os.Remove(outPath)
		return err
	}
	s.segs[outSeg.seq] = outSeg
	s.order = newOrder
	s.generation++
	s.segMu.Unlock()
	if s.crash(compactStageSwapped) {
		return errCompactionAborted
	}

	// Repoint every index entry that still lives in a compacted segment.
	// Keys that moved while we merged (deleted, or tombstoned and re-put
	// into the active segment) keep their current ref; their copy in the
	// output is dead on arrival.
	pred := func(seq int64) bool { return inSeqs[seq] }
	for key, ref := range outRefs {
		ref.seg = outSeg.seq
		if !s.idx.replace(key, pred, ref) {
			outSeg.recordDead(ref.length)
		}
	}

	// Now no new reads can land in the old segments; drop them. Readers
	// that already fetched a handle finish under segMu.RLock before the
	// write lock lets us through, so closing afterwards is safe.
	s.segMu.Lock()
	for _, sg := range prefix {
		delete(s.segs, sg.seq)
	}
	s.segMu.Unlock()
	for i, sg := range prefix {
		sg.f.Close()
		if err := os.Remove(sg.path); err != nil {
			s.log("store: compact: remove %s: %v", sg.path, err)
		}
		if i == 0 && s.crash(compactStageMidDelete) {
			return errCompactionAborted
		}
	}
	if err := syncDir(s.dir); err != nil {
		s.log("store: compact: %v", err)
	}

	reclaimed := inputBytes - outSize
	if reclaimed < 0 {
		reclaimed = 0
	}
	s.compactionsC.Inc()
	s.reclaimed.Add(reclaimed)
	s.refreshAccounting()
	s.log("store: compacted %d segments (%d bytes) into %s (%d bytes), reclaimed %d",
		len(prefix), inputBytes, outName, outSize, reclaimed)

	// The layout changed, so any existing snapshot is stale; write a
	// fresh one now rather than paying a full replay on the next open.
	if err := s.writeSnapshotLocked(); err != nil {
		s.log("store: compact: refresh snapshot: %v", err)
	}
	return nil
}
