package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/frame"
)

// journalMagic marks result-journal records in segment files. Every
// store file is a sequence of internal/frame frames under its own
// magic: "VMR1" segments, "VMC1" control WAL, "VMS1" index snapshot.
// The per-record checksum is what makes crash recovery possible: a torn
// write at the tail fails the length or the CRC and is truncated away
// on open.
var journalMagic = [4]byte{'V', 'M', 'R', '1'}

// maxRecordBytes bounds one frame's payload in every store file, so a
// corrupt length field cannot drive a multi-gigabyte allocation during
// replay. Writers refuse anything larger: the store never writes a
// record its own replay would reject.
const maxRecordBytes = 1 << 30

// appendFrame appends payload to dst as one frame of a store file.
func appendFrame(dst []byte, magic [4]byte, payload []byte) ([]byte, error) {
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: %d-byte record exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	return frame.Append(dst, magic, payload), nil
}

// scanFile replays the frames of f from byte offset from, passing fn
// each payload with its file offset. It returns the offset just past
// the last good frame and the reason the scan stopped there; see
// frame.Scan. Deciding whether to truncate is the caller's business:
// the files are append-only, so damage mid-file cannot occur without
// tail damage first.
func scanFile(f *os.File, magic [4]byte, from int64, fn func(off int64, payload []byte) error) (int64, string, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, from, math.MaxInt64-from), 1<<20)
	end, reason, err := frame.Scan(r, magic, maxRecordBytes, func(off int64, payload []byte) error {
		return fn(from+off, payload)
	})
	return from + end, reason, err
}

// encodeRecord renders one entry as a framed journal record.
func encodeRecord(e *Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("store: marshal record for %s: %w", e.Key, err)
	}
	rec, err := appendFrame(nil, journalMagic, payload)
	if err != nil {
		return nil, fmt.Errorf("store: record for %s: %w", e.Key, err)
	}
	return rec, nil
}

// decodeRecord parses a framed record read back from disk.
func decodeRecord(rec []byte) (Entry, error) {
	var e Entry
	payload, err := frame.Decode(rec, journalMagic)
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, fmt.Errorf("decode record: %w", err)
	}
	return e, nil
}
