package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

var magic = [4]byte{'T', 'S', 'T', '1'}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 70000)}
	var stream []byte
	for _, p := range payloads {
		stream = Append(stream, magic, p)
	}
	r := bytes.NewReader(stream)
	for i, want := range payloads {
		got, err := Read(r, magic, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, err %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := Read(r, magic, 1<<20); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	// Parts concatenate into one payload under one checksum.
	split := Append(nil, magic, []byte("hel"), nil, []byte("lo"))
	if !bytes.Equal(split, Append(nil, magic, []byte("hello"))) {
		t.Fatal("a payload in parts encodes differently from the whole")
	}
	got, err := Decode(split, magic)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Decode = %q, %v", got, err)
	}
}

func TestRejections(t *testing.T) {
	good := Append(nil, magic, []byte("payload bytes"))
	mutated := func(mutate func(b []byte)) []byte {
		b := append([]byte{}, good...)
		mutate(b)
		return b
	}
	badMagic := mutated(func(b []byte) { b[0] = 'X' })
	badCRC := mutated(func(b []byte) { b[len(b)-1] ^= 0xff })
	long := mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<20) })
	short := mutated(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 3) })

	for _, tc := range []struct {
		name string
		b    []byte
		want error // from Read; Decode always wants ErrBad
	}{
		{"bad magic", badMagic, ErrBad},
		{"bad crc", badCRC, ErrBad},
		{"length over the bound", long, ErrBad},
		{"torn header", good[:HeaderLen-1], io.ErrUnexpectedEOF},
		{"torn payload", good[:len(good)-1], io.ErrUnexpectedEOF},
		{"header only", good[:HeaderLen], io.ErrUnexpectedEOF},
	} {
		if _, err := Read(bytes.NewReader(tc.b), magic, 1<<10); !errors.Is(err, tc.want) {
			t.Errorf("Read, %s: %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Decode(tc.b, magic); !errors.Is(err, ErrBad) {
			t.Errorf("Decode, %s: %v, want ErrBad", tc.name, err)
		}
	}
	// A length that fits the bound but not the buffer: Read takes the
	// rest of the frame from the stream, Decode needs it to match.
	if _, err := Decode(short, magic); !errors.Is(err, ErrBad) {
		t.Errorf("Decode, length mismatch: %v, want ErrBad", err)
	}
	if _, err := Decode(append(append([]byte{}, good...), 0), magic); !errors.Is(err, ErrBad) {
		t.Errorf("Decode, trailing byte: %v, want ErrBad", err)
	}
	if _, err := Read(bytes.NewReader(good), [4]byte{'T', 'S', 'T', '2'}, 1<<10); !errors.Is(err, ErrBad) {
		t.Errorf("Read under another magic: %v, want ErrBad", err)
	}
}

func TestScanStopsAtFirstDamage(t *testing.T) {
	var stream []byte
	var offs []int64
	for _, p := range []string{"one", "", "three"} {
		offs = append(offs, int64(len(stream)))
		stream = Append(stream, magic, []byte(p))
	}
	good := int64(len(stream))
	tail := Append(nil, magic, []byte("four"))
	bad := append([]byte{}, tail...)
	bad[len(bad)-1] ^= 1

	scan := func(b []byte, fn func(int64, []byte) error) (int64, string) {
		t.Helper()
		end, reason, err := Scan(bytes.NewReader(b), magic, 1<<10, fn)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		return end, reason
	}
	var seen []int64
	if end, reason := scan(stream, func(off int64, _ []byte) error {
		seen = append(seen, off)
		return nil
	}); end != good || reason != "" {
		t.Fatalf("clean stream: end %d reason %q, want %d and none", end, reason, good)
	}
	if len(seen) != len(offs) || seen[0] != offs[0] || seen[1] != offs[1] || seen[2] != offs[2] {
		t.Fatalf("offsets %v, want %v", seen, offs)
	}

	accept := func(int64, []byte) error { return nil }
	for _, tc := range []struct {
		name, reason string
		tail         []byte
	}{
		{"torn header", "torn frame", tail[:5]},
		{"torn payload", "torn frame", tail[:len(tail)-1]},
		{"bad crc", "bad frame: checksum mismatch", bad},
		{"bad magic", `bad frame: magic "XST1", want "TST1"`, append([]byte{'X'}, tail[1:]...)},
	} {
		end, reason := scan(append(append([]byte{}, stream...), tc.tail...), accept)
		if end != good || reason != tc.reason {
			t.Errorf("%s: end %d reason %q, want %d and %q", tc.name, end, reason, good, tc.reason)
		}
	}

	// A frame fn refuses is damage too, reported with fn's text.
	if end, reason := scan(stream, func(off int64, p []byte) error {
		if string(p) == "three" {
			return errors.New("undecodable")
		}
		return nil
	}); end != offs[2] || reason != "undecodable" {
		t.Fatalf("refused frame: end %d reason %q, want %d and %q", end, reason, offs[2], "undecodable")
	}
}

// failingReader yields its bytes, then err instead of io.EOF.
type failingReader struct {
	b   []byte
	err error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

func TestScanReturnsReadErrors(t *testing.T) {
	eio := errors.New("input/output error")
	one := Append(nil, magic, []byte("committed"))
	for _, b := range [][]byte{one, append(one, one[:5]...), append(one, one[:HeaderLen+2]...)} {
		n := 0
		end, reason, err := Scan(&failingReader{b: b, err: eio}, magic, 1<<10, func(int64, []byte) error {
			n++
			return nil
		})
		if !errors.Is(err, eio) || reason != "" {
			t.Fatalf("read error after %d bytes: err %v reason %q, want the read error and no reason", len(b), err, reason)
		}
		if n != 1 || end != int64(len(one)) {
			t.Fatalf("read error after %d bytes: %d frames, end %d; want 1 and %d", len(b), n, end, len(one))
		}
	}
}
