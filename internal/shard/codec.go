package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// A lease grant travels as a JSON array of descriptors, the same
// encoding as every other frame payload. The framing layer
// (internal/wire) has already checked magic, length (at most
// wire.MaxPayload) and CRC, so this codec's job is structural: the
// array is read one descriptor at a time, its length is capped before
// the next descriptor is decoded, and every descriptor is checked, so
// hostile or truncated payloads fail decoding instead of allocating
// without bound or panicking. DecodeBatch is a fuzz target
// (fuzz_test.go).

const (
	// maxBatch caps descriptors per grant; the coordinator grants at
	// most a worker's advertised demand, far below this.
	maxBatch = 4096
	// maxFieldBytes caps the id/key/parent strings (hex SHA-256 keys
	// are 64 bytes).
	maxFieldBytes = 1024
	// maxTrialIndex bounds trial indices on the wire; scenario specs cap
	// trials far below this, so anything larger is hostile or corrupt.
	maxTrialIndex = 1 << 30
)

// ErrBatchTooLarge reports an encode-side batch over the wire cap.
var ErrBatchTooLarge = errors.New("shard: batch exceeds wire cap")

// check applies the limits both ends of the wire hold a descriptor to.
func (d *Descriptor) check() error {
	switch {
	case len(d.ID) > maxFieldBytes, len(d.Key) > maxFieldBytes, len(d.Parent) > maxFieldBytes:
		return fmt.Errorf("an id, key or parent exceeds %d bytes", maxFieldBytes)
	case d.Start < 0, d.End <= d.Start, d.End > maxTrialIndex:
		return fmt.Errorf("trial range [%d,%d) is empty or out of bounds", d.Start, d.End)
	}
	return nil
}

// EncodeBatch serializes a grant batch.
func EncodeBatch(ds []Descriptor) ([]byte, error) {
	if len(ds) > maxBatch {
		return nil, ErrBatchTooLarge
	}
	for i := range ds {
		if err := ds[i].check(); err != nil {
			return nil, fmt.Errorf("shard: descriptor %s: %w", ds[i].ID, err)
		}
	}
	return json.Marshal(ds)
}

// DecodeBatch parses a grant batch. Malformed input yields an error,
// never a panic — the receiving side drops the conn and re-syncs via
// re-registration.
func DecodeBatch(b []byte) ([]Descriptor, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return nil, errors.New("shard: batch is not a JSON array")
	}
	ds := []Descriptor{} // not nil: an empty batch re-encodes as [], not null
	for dec.More() {
		if len(ds) == maxBatch {
			return nil, fmt.Errorf("shard: batch exceeds %d descriptors", maxBatch)
		}
		var d Descriptor
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("shard: descriptor %d: %w", len(ds), err)
		}
		if err := d.check(); err != nil {
			return nil, fmt.Errorf("shard: descriptor %d: %w", len(ds), err)
		}
		ds = append(ds, d)
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("shard: batch truncated: %w", err)
	}
	if rest := int64(len(b)) - dec.InputOffset(); rest != 0 {
		return nil, fmt.Errorf("shard: %d trailing bytes after batch", rest)
	}
	return ds, nil
}
