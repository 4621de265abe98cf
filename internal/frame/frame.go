// Package frame owns the CRC-32 frame that every durable store file and
// the worker wire are built from. Little-endian:
//
//	magic   [4]byte  names the format: a store file kind, or the wire
//	length  uint32   payload byte count
//	crc     uint32   IEEE CRC-32 of the payload
//	payload []byte
//
// Readers check the length against a bound the caller passes before
// allocating, so a corrupt or hostile length cannot drive a huge
// allocation. Every framing violation wraps ErrBad. A stream that ends
// inside a frame is io.ErrUnexpectedEOF. Any other read error passes
// through unchanged, so a caller can tell damaged bytes (truncate, or
// drop the conn) from a failing device (give up, destroy nothing).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderLen is the byte count in front of every payload.
const HeaderLen = 12

// ErrBad wraps every framing violation: bad magic, a length over the
// bound or not matching the buffer, a checksum mismatch.
var ErrBad = errors.New("bad frame")

// Append appends one frame to dst. The payload is the concatenation of
// parts, so a caller can prefix a tag without copying the rest.
func Append(dst []byte, magic [4]byte, parts ...[]byte) []byte {
	n := HeaderLen
	for _, p := range parts {
		n += len(p)
	}
	dst = slices.Grow(dst, n)
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, set below
	for _, p := range parts {
		dst = append(dst, p...)
	}
	payload := dst[start+HeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.ChecksumIEEE(payload))
	return dst
}

// Read reads one frame from r and returns its payload, at most limit
// bytes. It returns io.EOF only when r ends exactly at a frame boundary.
func Read(r io.Reader, magic [4]byte, limit int) ([]byte, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := check(hdr[:], magic, int64(limit))
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, verify(hdr[:], payload)
}

// Decode returns the payload of b, which must hold exactly one frame.
// The payload aliases b.
func Decode(b []byte, magic [4]byte) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrBad, len(b))
	}
	n, err := check(b[:HeaderLen], magic, int64(len(b)-HeaderLen))
	if err == nil && n != len(b)-HeaderLen {
		err = fmt.Errorf("%w: length %d, buffer holds %d", ErrBad, n, len(b)-HeaderLen)
	}
	if err != nil {
		return nil, err
	}
	payload := b[HeaderLen:]
	return payload, verify(b[:HeaderLen], payload)
}

// Scan reads frames from r up to its first damaged frame, calling fn
// with each payload and its offset from the start of r. An error from
// fn marks that frame as damaged, with the error's text as the reason.
// Scan returns the offset just past the last good frame and the reason
// the scan stopped there, empty when r ended cleanly. Damage is a short
// read or a framing violation; any other read error is returned as err
// with no reason, because the bytes behind it may be intact.
func Scan(r io.Reader, magic [4]byte, limit int, fn func(off int64, payload []byte) error) (end int64, reason string, err error) {
	for {
		payload, err := Read(r, magic, limit)
		switch {
		case err == io.EOF:
			return end, "", nil
		case err == io.ErrUnexpectedEOF:
			return end, "torn frame", nil
		case errors.Is(err, ErrBad):
			return end, err.Error(), nil
		case err != nil:
			return end, "", err
		}
		if err := fn(end, payload); err != nil {
			return end, err.Error(), nil
		}
		end += HeaderLen + int64(len(payload))
	}
}

// check validates a header's magic and length bound and returns the
// payload length.
func check(hdr []byte, magic [4]byte, limit int64) (int, error) {
	if [4]byte(hdr[:4]) != magic {
		return 0, fmt.Errorf("%w: magic %q, want %q", ErrBad, hdr[:4], magic[:])
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if int64(n) > limit {
		return 0, fmt.Errorf("%w: length %d exceeds %d", ErrBad, n, limit)
	}
	return int(n), nil
}

// verify checks payload against the header's checksum.
func verify(hdr, payload []byte) error {
	if binary.LittleEndian.Uint32(hdr[8:]) != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("%w: checksum mismatch", ErrBad)
	}
	return nil
}
