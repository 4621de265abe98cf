package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/frame"
)

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 70000)}
	types := []FrameType{Hello, Heartbeat, Complete}
	for i, p := range payloads {
		stream = AppendFrame(stream, types[i], p)
	}
	r := bytes.NewReader(stream)
	for i, want := range payloads {
		ft, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i] || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d len %d, want type %d len %d", i, ft, len(got), types[i], len(want))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}

	// The bytes on the wire: magic, length 3 (type byte and "hi"), the
	// CRC of all three, the type byte, the message.
	if got := hex.EncodeToString(AppendFrame(nil, Hello, []byte("hi"))); got != "564d573303000000768bc967016869" {
		t.Fatalf("Hello frame encodes as %s", got)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, Grant, []byte("payload bytes"))

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte{}, good...)
		mutate(b)
		_, _, err := ReadFrame(bytes.NewReader(b))
		return err
	}

	if err := corrupt(func(b []byte) { b[0] = 'X' }); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(AppendFrame(nil, 0, []byte("payload bytes")))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero type: %v", err)
	}
	if err := corrupt(func(b []byte) {
		binary.LittleEndian.PutUint32(b[4:8], MaxPayload+1)
	}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: %v", err)
	}
	if err := corrupt(func(b []byte) { b[len(b)-1] ^= 0xff }); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("flipped payload bit: %v", err)
	}
	if err := corrupt(func(b []byte) { b[frame.HeaderLen] = byte(Heartbeat) }); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("flipped type byte: %v", err)
	}
	// A peer from a build that framed "VMW1" (type byte before the
	// length, outside the CRC) is refused at its first frame.
	hello := []byte(`{"worker_id":"w0001"}`)
	old := append([]byte("VMW1"), byte(Hello))
	old = binary.LittleEndian.AppendUint32(old, uint32(len(hello)))
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(hello))
	if _, _, err := ReadFrame(bytes.NewReader(append(old, hello...))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("VMW1 frame: %v", err)
	}
	// So is one from a build that framed "VMW2": the same layout, but
	// grants encoded as varint batches.
	vmw2 := frame.Append(nil, [4]byte{'V', 'M', 'W', '2'}, []byte{byte(Hello)}, hello)
	if _, _, err := ReadFrame(bytes.NewReader(vmw2)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("VMW2 frame: %v", err)
	}
	// Torn mid-payload and mid-header: io errors, not panics.
	for _, cut := range []int{3, frame.HeaderLen + 1, len(good) - 2} {
		if _, _, err := ReadFrame(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("torn at %d: decoded without error", cut)
		}
	}
}

func TestConnConcurrentSendersDoNotInterleave(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const senders, frames = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + s)}, 300+s)
			for i := 0; i < frames; i++ {
				if err := ca.Send(FrameType(s+1), payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < senders*frames; i++ {
			ft, p, err := cb.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			want := bytes.Repeat([]byte{byte('a'+ft) - 1}, 300+int(ft)-1)
			if !bytes.Equal(p, want) {
				recvErr <- errors.New("payload does not match its frame type: frames interleaved")
				return
			}
		}
		recvErr <- nil
	}()
	wg.Wait()
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
}

func TestConnCloseUnblocksRecv(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer cb.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := ca.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ca.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestConnReadDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			time.Sleep(time.Second)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := c.Recv(); err == nil {
		t.Fatal("Recv returned nil past its deadline")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
}
