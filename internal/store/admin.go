package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Offline admin views over a store directory, consumed by the
// vmat-store command. Inspect and Verify are strictly read-only — they
// never truncate or commit anything, so an operator can point them at
// a live or suspect data dir without changing what a later Open would
// see.

// SegmentInfo describes one segment file as found on disk.
type SegmentInfo struct {
	Name  string `json:"name"`
	ID    int64  `json:"id"`
	Gen   int64  `json:"gen"`
	Bytes int64  `json:"bytes"`
}

// InspectReport is the layout of a store directory, as-is.
type InspectReport struct {
	Dir                string        `json:"dir"`
	HasManifest        bool          `json:"has_manifest"`
	ManifestError      string        `json:"manifest_error,omitempty"`
	ManifestGeneration int64         `json:"manifest_generation,omitempty"`
	NextID             int64         `json:"next_id,omitempty"`
	Segments           []SegmentInfo `json:"segments"`
	Unlisted           []SegmentInfo `json:"unlisted,omitempty"`
	HasSnapshot        bool          `json:"has_snapshot"`
	SnapshotError      string        `json:"snapshot_error,omitempty"`
	SnapshotKeys       int           `json:"snapshot_keys,omitempty"`
	SnapshotAgeSeconds int64         `json:"snapshot_age_seconds,omitempty"`
}

// Inspect reads a store directory's layout without touching it.
func Inspect(dir string) (*InspectReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store: inspect %s: %w", dir, err)
	}
	rep := &InspectReport{Dir: dir}

	segInfo := func(ms manifestSegment) SegmentInfo {
		info := SegmentInfo{Name: segName(ms.ID, ms.Gen), ID: ms.ID, Gen: ms.Gen, Bytes: -1}
		if fi, err := os.Stat(filepath.Join(dir, info.Name)); err == nil {
			info.Bytes = fi.Size()
		}
		return info
	}

	m, merr := loadManifest(dir)
	files, err := scanSegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case merr != nil:
		rep.ManifestError = merr.Error()
	case m != nil:
		rep.HasManifest = true
		rep.ManifestGeneration = m.Generation
		rep.NextID = m.NextID
		listed := map[[2]int64]bool{}
		for _, ms := range m.Segments {
			rep.Segments = append(rep.Segments, segInfo(ms))
			listed[[2]int64{ms.ID, ms.Gen}] = true
		}
		for _, f := range files {
			if !listed[[2]int64{f.ID, f.Gen}] {
				rep.Unlisted = append(rep.Unlisted, segInfo(f))
			}
		}
	default:
		// No manifest: show the layout a bootstrap would adopt.
		boot, drop := bootstrapManifest(files)
		if len(files) > 0 {
			for _, ms := range boot.Segments {
				rep.Segments = append(rep.Segments, segInfo(ms))
			}
			for _, d := range drop {
				rep.Unlisted = append(rep.Unlisted, segInfo(d))
			}
		}
	}

	if sn, err := loadSnapshotFile(dir); sn != nil {
		rep.HasSnapshot = true
		rep.SnapshotKeys = len(sn.keys)
		if age := time.Now().Unix() - sn.unixTime; age >= 0 {
			rep.SnapshotAgeSeconds = age
		}
	} else if err != nil {
		rep.SnapshotError = err.Error()
	}
	return rep, nil
}

// VerifyReport is the result of a full offline integrity pass.
type VerifyReport struct {
	Segments int      `json:"segments"`
	Records  int64    `json:"records"` // complete, checksummed records
	Keys     int64    `json:"keys"`    // distinct keys among them
	Warnings []string `json:"warnings,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

// OK reports whether the directory verified clean: recoverable tail
// damage is a warning, anything that would lose committed data is a
// problem.
func (v *VerifyReport) OK() bool { return len(v.Problems) == 0 }

// Verify replays every committed segment record-by-record (CRC and
// JSON checks), checks the manifest against the files on disk, and
// validates the index snapshot's coverage — all without writing.
func Verify(dir string) (*VerifyReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store: verify %s: %w", dir, err)
	}
	rep := &VerifyReport{}
	m, merr := loadManifest(dir)
	files, err := scanSegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if merr != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("manifest unreadable (%v); open would rebuild from segment files", merr))
	}
	if m == nil {
		if len(files) == 0 {
			return rep, nil // empty dir: nothing to verify
		}
		m, _ = bootstrapManifest(files)
		rep.Warnings = append(rep.Warnings, "no manifest; verifying the bootstrap order (id, gen)")
	}

	var paths, names []string
	for _, ms := range m.Segments {
		name := segName(ms.ID, ms.Gen)
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("manifest lists %s but it is missing", name))
			continue
		}
		paths = append(paths, p)
		names = append(names, name)
	}
	listed := map[[2]int64]bool{}
	for _, ms := range m.Segments {
		listed[[2]int64{ms.ID, ms.Gen}] = true
	}
	for _, f := range files {
		if !listed[[2]int64{f.ID, f.Gen}] {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("unlisted segment %s; open would delete it as uncommitted", segName(f.ID, f.Gen)))
		}
	}
	if _, err := verifyChain(rep, paths, names); err != nil {
		return nil, err
	}

	// Snapshot: usable means decodable and within the coverage the
	// files can actually back.
	if sn, err := loadSnapshotFile(dir); err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("index snapshot unusable (%v); open would replay in full", err))
	} else if sn != nil {
		if len(sn.segs) > len(m.Segments) {
			rep.Warnings = append(rep.Warnings, "index snapshot covers more segments than the manifest; open would replay in full")
		} else {
			for i, ss := range sn.segs {
				ms := m.Segments[i]
				fi, err := os.Stat(filepath.Join(dir, segName(ms.ID, ms.Gen)))
				if ss.id != ms.ID || ss.gen != ms.Gen || err != nil || ss.covered > fi.Size() {
					rep.Warnings = append(rep.Warnings, "index snapshot stale; open would replay in full")
					break
				}
			}
		}
	}
	return rep, nil
}

// verifyChain scans the given journal files in replay order, counting
// records and distinct keys and recording damage.
func verifyChain(rep *VerifyReport, paths, names []string) (*VerifyReport, error) {
	keys := map[string]bool{}
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("store: verify: open %s: %w", p, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: verify: stat %s: %w", p, err)
		}
		off, reason, err := scanFile(f, journalMagic, 0, func(off int64, payload []byte) error {
			var e Entry
			if jerr := json.Unmarshal(payload, &e); jerr != nil || e.Key == "" {
				return errors.New("undecodable record payload")
			}
			rep.Records++
			keys[e.Key] = true
			return nil
		})
		f.Close()
		if err != nil {
			return nil, err
		}
		rep.Segments++
		if reason != "" {
			lost := fi.Size() - off
			msg := fmt.Sprintf("%s corrupt at offset %d (%s), %d bytes affected", names[i], off, reason, lost)
			if i == len(paths)-1 {
				// Tail damage in the active segment is the expected
				// signature of a torn write; open recovers it.
				rep.Warnings = append(rep.Warnings, msg+"; open would truncate (torn tail)")
			} else {
				rep.Problems = append(rep.Problems, msg+" in a sealed segment; open would truncate, losing committed records")
			}
		}
	}
	rep.Keys = int64(len(keys))
	return rep, nil
}
