package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/frame"
)

// FuzzReadFrame is the journal-crash-test of the transport: arbitrary
// bytes fed to the frame reader must decode cleanly, hit io.EOF /
// io.ErrUnexpectedEOF, or fail with ErrBadFrame — never panic, and
// never allocate past MaxPayload. Whatever it accepts must re-encode to
// exactly the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, Hello, []byte(`{"worker_id":"w0001"}`)))
	f.Add(AppendFrame(AppendFrame(nil, Want, []byte(`{"n":2}`)), Heartbeat, []byte(`{}`)))
	f.Add([]byte("VMW3"))
	f.Add(bytes.Repeat([]byte{0}, frame.HeaderLen+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		consumed := 0
		for {
			before := r.Len()
			ft, payload, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			n := before - r.Len()
			re := AppendFrame(nil, ft, payload)
			if !bytes.Equal(re, b[consumed:consumed+n]) {
				t.Fatal("accepted frame does not re-encode to the consumed bytes")
			}
			consumed += n
		}
	})
}

// FuzzConnStream drives the same bytes through a real Conn over a TCP
// socket — the deployed read path, bufio and deadlines included — and
// requires the reader goroutine to terminate without panicking no
// matter what arrives.
func FuzzConnStream(f *testing.F) {
	f.Add(AppendFrame(nil, Grant, bytes.Repeat([]byte{1}, 100)))
	f.Add([]byte("VMW3\x05garbage that is not a frame at all"))
	f.Fuzz(func(t *testing.T, b []byte) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback listener:", err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write(b)
			c.Close()
		}()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Skip("no loopback dial:", err)
		}
		conn := NewConn(nc)
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			if _, _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
}
