package chaos

import (
	"io"
	"net"
	"sync"
)

// Proxy is a severable TCP relay the harness parks in front of the
// server's streaming transport (the server advertises the proxy via
// -wire-advertise, so workers dial through it). Sever drops every live
// relayed conn at once — the network-partition fault — while the
// listener keeps accepting, so reconnecting workers get through. The
// proxy itself is harness infrastructure and outlives server restarts:
// its target is the server's fixed wire port, whichever incarnation
// holds it.
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool

	// relayed gets a token, without blocking, each time a new pair goes
	// live, so a harness waiting for something to sever can look again
	// at once.
	relayed chan struct{}
}

// NewProxy listens on listen (e.g. "127.0.0.1:0") and relays every
// accepted conn to target.
func NewProxy(listen, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: map[net.Conn]bool{}, relayed: make(chan struct{}, 1)}
	go p.acceptLoop()
	return p, nil
}

// Addr is the address workers should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go p.relay(c)
	}
}

// relay pipes one accepted conn to a fresh conn to the target, both
// directions, until either side (or Sever) closes.
func (p *Proxy) relay(in net.Conn) {
	out, err := net.Dial("tcp", p.target)
	if err != nil {
		in.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		in.Close()
		out.Close()
		return
	}
	p.conns[in] = true
	p.conns[out] = true
	p.mu.Unlock()
	select {
	case p.relayed <- struct{}{}:
	default:
	}

	done := make(chan struct{}, 2)
	pipe := func(dst, src net.Conn) {
		io.Copy(dst, src)
		dst.Close()
		src.Close()
		done <- struct{}{}
	}
	go pipe(out, in)
	go pipe(in, out)
	<-done
	<-done
	p.mu.Lock()
	delete(p.conns, in)
	delete(p.conns, out)
	p.mu.Unlock()
}

// Sever closes every live relayed conn and returns how many pairs it
// dropped. It forgets the conns it closes, so a later Sever counts and
// closes only conns opened since. New conns are still accepted —
// workers reconnect through.
func (p *Proxy) Sever() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	clear(p.conns)
	return n / 2
}

// Close stops the listener and drops everything live.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
}
