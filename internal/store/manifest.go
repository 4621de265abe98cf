package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/frame"
)

// The manifest is the authoritative description of the segment layout:
// which segment files exist, in what replay order, and what the next
// segment id is. It is rewritten — never appended — through a temp file
// and an atomic rename on every roll, so a crash leaves either the old
// layout or the new one, and any segment file the surviving manifest
// does not list is provably uncommitted debris (a rolled file that
// never hosted a record, or what an earlier build's compaction left
// when it was interrupted) and is deleted on open.

// ManifestName is the segment-layout manifest inside the store
// directory. Exported so operators (and tests) can find it.
const ManifestName = "MANIFEST.vmat"

// manifestMagic frames the manifest payload.
var manifestMagic = [4]byte{'V', 'M', 'M', '1'}

// manifestVersion is bumped when the layout encoding changes.
const manifestVersion = 1

// manifestSegment is one segment in replay order.
type manifestSegment struct {
	ID  int64 `json:"id"`
	Gen int64 `json:"gen"`
}

// manifest is the decoded layout. Segments are in replay order; the
// last entry is the active (appendable) segment.
type manifest struct {
	Version    int               `json:"version"`
	Generation int64             `json:"generation"`
	NextID     int64             `json:"next_id"`
	Segments   []manifestSegment `json:"segments"`
}

// encodeManifest renders the manifest as one framed record.
func encodeManifest(m *manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: marshal manifest: %w", err)
	}
	return appendFrame(nil, manifestMagic, payload)
}

// decodeManifest parses and validates manifest bytes. Every failure is
// an error, never a panic — the fuzz tests hold it to that.
func decodeManifest(b []byte) (*manifest, error) {
	payload, err := frame.Decode(b, manifestMagic)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("unsupported manifest version %d", m.Version)
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("manifest lists no segments")
	}
	seen := map[int64]bool{}
	maxID := int64(0)
	for _, ms := range m.Segments {
		if ms.ID < 1 || ms.Gen < 1 {
			return nil, fmt.Errorf("manifest segment (%d,%d) out of range", ms.ID, ms.Gen)
		}
		if seen[ms.ID] {
			return nil, fmt.Errorf("manifest lists segment id %d twice", ms.ID)
		}
		seen[ms.ID] = true
		if ms.ID > maxID {
			maxID = ms.ID
		}
	}
	if m.NextID <= maxID {
		return nil, fmt.Errorf("manifest next_id %d not past max segment id %d", m.NextID, maxID)
	}
	return &m, nil
}

// commitManifest atomically replaces dir's manifest.
func commitManifest(dir string, m *manifest) error {
	rec, err := encodeManifest(m)
	if err != nil {
		return err
	}
	_, err = replaceFile(filepath.Join(dir, ManifestName), rec)
	return err
}

// loadManifest reads dir's manifest. A missing file returns (nil, nil);
// unreadable or invalid bytes return an error.
func loadManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	return decodeManifest(b)
}

// scanSegmentFiles lists the (id, gen) pairs of every well-named
// segment file in dir, sorted by (id, gen).
func scanSegmentFiles(dir string) ([]manifestSegment, error) {
	names, err := filepath.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("store: scan segments: %w", err)
	}
	var segs []manifestSegment
	for _, p := range names {
		if id, gen, ok := parseSegName(filepath.Base(p)); ok {
			segs = append(segs, manifestSegment{ID: id, Gen: gen})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].ID != segs[j].ID {
			return segs[i].ID < segs[j].ID
		}
		return segs[i].Gen < segs[j].Gen
	})
	return segs, nil
}

// bootstrapManifest reconstructs a manifest from the segment files on
// disk: sort by id, and where an id has several generations keep the
// highest (an earlier build's compacted replacement; see segment.go on
// why (id, gen) order is always a correct replay order). Used when no
// manifest exists (hand-assembled dirs) and as the recovery path for a
// corrupt manifest. The dropped lower
// generations are returned so the caller can delete them.
func bootstrapManifest(files []manifestSegment) (*manifest, []manifestSegment) {
	var keep []manifestSegment
	var drop []manifestSegment
	for _, ms := range files { // sorted by (id, gen): last of each id wins
		if len(keep) > 0 && keep[len(keep)-1].ID == ms.ID {
			drop = append(drop, keep[len(keep)-1])
			keep[len(keep)-1] = ms
			continue
		}
		keep = append(keep, ms)
	}
	nextID := int64(1)
	if len(keep) > 0 {
		nextID = keep[len(keep)-1].ID + 1
	}
	return &manifest{Version: manifestVersion, Generation: 1, NextID: nextID, Segments: keep}, drop
}
