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
	Segments           []SegmentInfo `json:"segments"`             // replay order; the last is active
	Superseded         []SegmentInfo `json:"superseded,omitempty"` // lower generations open would delete
	HasSnapshot        bool          `json:"has_snapshot"`
	SnapshotError      string        `json:"snapshot_error,omitempty"`
	SnapshotKeys       int           `json:"snapshot_keys,omitempty"`
	SnapshotAgeSeconds int64         `json:"snapshot_age_seconds,omitempty"`
}

// Inspect reads a store directory's layout without touching it. A
// missing segment does not show here; Verify reports it.
func Inspect(dir string) (*InspectReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store: inspect %s: %w", dir, err)
	}
	files, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	order, superseded, _ := layout(files)
	rep := &InspectReport{Dir: dir, Segments: segInfos(dir, order), Superseded: segInfos(dir, superseded)}
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

// segInfos stats the given segment files of dir; a file that vanished
// since it was listed reports -1 bytes.
func segInfos(dir string, segs []segRef) []SegmentInfo {
	var out []SegmentInfo
	for _, f := range segs {
		info := SegmentInfo{Name: segName(f.id, f.gen), ID: f.id, Gen: f.gen, Bytes: -1}
		if fi, err := os.Stat(filepath.Join(dir, info.Name)); err == nil {
			info.Bytes = fi.Size()
		}
		out = append(out, info)
	}
	return out
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
// JSON checks), checks the segment names for a missing segment, and
// validates the index snapshot's coverage — all without writing.
func Verify(dir string) (*VerifyReport, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store: verify %s: %w", dir, err)
	}
	rep := &VerifyReport{}
	files, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	order, superseded, gap := layout(files)
	if gap != nil {
		rep.Problems = append(rep.Problems, gap.Error()+"; open would fail")
	}
	for _, f := range superseded {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("superseded segment %s; open would delete it", segName(f.id, f.gen)))
	}
	if err := verifyChain(rep, dir, order); err != nil {
		return nil, err
	}

	// Snapshot: usable means decodable and within the coverage the
	// files can actually back.
	if sn, err := loadSnapshotFile(dir); err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("index snapshot unusable (%v); open would replay in full", err))
	} else if sn != nil {
		if len(sn.segs) > len(order) {
			rep.Warnings = append(rep.Warnings, "index snapshot covers more segments than the directory holds; open would replay in full")
		} else {
			for i, ss := range sn.segs {
				f := order[i]
				fi, err := os.Stat(filepath.Join(dir, segName(f.id, f.gen)))
				if ss.id != f.id || ss.gen != f.gen || err != nil || ss.covered > fi.Size() {
					rep.Warnings = append(rep.Warnings, "index snapshot stale; open would replay in full")
					break
				}
			}
		}
	}
	return rep, nil
}

// verifyChain scans the segment files of dir in replay order, counting
// records and distinct keys and recording damage.
func verifyChain(rep *VerifyReport, dir string, order []segRef) error {
	keys := map[string]bool{}
	for i, sr := range order {
		name := segName(sr.id, sr.gen)
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("store: verify: open %s: %w", name, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: verify: stat %s: %w", name, err)
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
			return err
		}
		rep.Segments++
		if reason != "" {
			lost := fi.Size() - off
			msg := fmt.Sprintf("%s corrupt at offset %d (%s), %d bytes affected", name, off, reason, lost)
			if i == len(order)-1 {
				// Tail damage in the active segment is the expected
				// signature of a torn write; open recovers it.
				rep.Warnings = append(rep.Warnings, msg+"; open would truncate (torn tail)")
			} else {
				rep.Problems = append(rep.Problems, msg+" in a sealed segment; open would truncate, losing committed records")
			}
		}
	}
	rep.Keys = int64(len(keys))
	return nil
}
