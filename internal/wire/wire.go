// Package wire is the persistent-connection transport of the sharded
// execution fabric: compact length-prefixed binary frames over one
// long-lived TCP conn per worker, replacing the per-unit HTTP polling
// of the original cluster plane. A wire frame is an internal/frame
// frame, the same CRC-32 framing as the result store's files, so a
// torn, truncated, or hostile byte stream is detected and the conn is
// closed — never a panic, and never an unbounded allocation. HTTP
// registration stays as the bootstrap path; this package carries only
// the hot loop (batched lease grants, streamed shard completions,
// piggybacked heartbeats).
//
// Frame layout (13 bytes before the message, little-endian):
//
//	magic  [4]byte "VMW3"
//	length uint32  type byte + message bytes, ≤ MaxPayload
//	crc32  uint32  IEEE CRC of the type byte and the message
//	type   uint8
//	message
//
// The CRC covers the type byte, so a flipped type fails the check. The
// magic names the protocol, payload encodings included: a peer from a
// build that framed "VMW1" (type outside the CRC) or "VMW2" (varint
// grant batches) is refused at its first frame for its magic, instead
// of failing later on a payload it cannot decode.
//
// The frame types and their payload encodings (JSON, every one of
// them) belong to the protocol layer (internal/cluster): this package
// moves opaque typed payloads.
package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
)

// Metric names the transport reports (registered by whichever side
// hosts a metrics registry — in this repository, the coordinator).
const (
	MetricFramesSent     = "wire_frames_sent_total"
	MetricFramesReceived = "wire_frames_received_total"
	MetricFrameErrors    = "wire_frame_errors_total"
	MetricReconnects     = "wire_reconnects_total"
	MetricConnsActive    = "wire_conns_active"
)

// FrameType tags a frame's payload encoding. Types are defined by the
// protocol layer; the transport only checks that the type is non-zero
// (zero bytes where a header should be is the classic torn-stream
// signature). Receivers ignore types they do not know, which is what
// lets the protocol grow without a version dance.
type FrameType uint8

// Frame types of the cluster protocol (defined here so both ends and
// the fuzz corpus share one set).
const (
	// Hello opens a conn: the worker presents its registered ID.
	Hello FrameType = 1
	// HelloAck accepts or rejects the Hello.
	HelloAck FrameType = 2
	// Want advertises how many more units the worker can take.
	Want FrameType = 3
	// Grant carries a batch of leased shard descriptors.
	Grant FrameType = 4
	// Complete streams one finished unit's result upload.
	Complete FrameType = 5
	// Heartbeat renews liveness and extends the held leases.
	Heartbeat FrameType = 6
	// Bye announces a graceful worker exit.
	Bye FrameType = 7
)

var magic = [4]byte{'V', 'M', 'W', '3'}

// MaxPayload bounds one frame's payload, the type byte included: the
// same cap as the HTTP complete endpoint, since completion uploads are
// the largest frames.
const MaxPayload = 64 << 20

// ErrBadFrame wraps every framing violation (bad magic, zero type,
// oversized length, CRC mismatch). The conn is unusable after one:
// close it and re-sync by reconnecting.
var ErrBadFrame = frame.ErrBad

// AppendFrame appends one encoded frame to dst.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	return frame.Append(dst, magic, []byte{byte(t)}, payload)
}

// ReadFrame reads and verifies one frame from r. Errors are terminal
// for the stream: framing violations return ErrBadFrame (wrapped), and
// short reads surface as io errors. The payload allocation is bounded
// by MaxPayload before it happens.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	p, err := frame.Read(r, magic, MaxPayload)
	if err != nil {
		return 0, nil, err
	}
	if len(p) == 0 || p[0] == 0 {
		return 0, nil, fmt.Errorf("%w: zero frame type", ErrBadFrame)
	}
	return FrameType(p[0]), p[1:], nil
}

// Conn wraps a net.Conn with framed reads and mutex-serialized writes:
// any goroutine may Send (completions, heartbeats, and demand all race
// for the same conn) while exactly one goroutine Recvs. Close is safe
// to call from any goroutine and unblocks a pending Recv.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	wmu sync.Mutex
	buf []byte // Send's scratch frame, reused under wmu
}

// NewConn wraps an established net.Conn.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}
}

// Send writes one frame. A frame is written in a single Write call so
// concurrent senders can never interleave partial frames.
func (c *Conn) Send(t FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf = AppendFrame(c.buf[:0], t, payload)
	_, err := c.nc.Write(c.buf)
	return err
}

// Recv reads the next frame. Not safe for concurrent use; run one
// reader goroutine per conn.
func (c *Conn) Recv() (FrameType, []byte, error) {
	return ReadFrame(c.r)
}

// SetReadDeadline bounds the next Recv; the zero time clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr reports the peer, for logs.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying conn, unblocking any pending Recv.
func (c *Conn) Close() error { return c.nc.Close() }
