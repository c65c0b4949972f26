package main

import (
	"net"
	"sync/atomic"
	"time"
)

// sockCounters accumulates what the stack does at the net.Conn it was
// given: bytes each way, Write calls, and time spent blocked in Write.
type sockCounters struct {
	writes, wbytes, rbytes, writeNanos atomic.Int64
	// corruptAt, when positive, flips one byte in the middle of the
	// corruptAt-th large Write (fault injection for the benchmark's own
	// tests).
	corruptAt atomic.Int64
	large     atomic.Int64
}

type sockSnap struct{ writes, wbytes, rbytes, writeNanos int64 }

func (c *sockCounters) snap() sockSnap {
	return sockSnap{c.writes.Load(), c.wbytes.Load(), c.rbytes.Load(), c.writeNanos.Load()}
}

func (s sockSnap) sub(o sockSnap) sockSnap {
	return sockSnap{s.writes - o.writes, s.wbytes - o.wbytes, s.rbytes - o.rbytes, s.writeNanos - o.writeNanos}
}

// corruptMin is the smallest Write the fault injector considers: large
// enough to be payload rather than a handshake or control frame.
const corruptMin = 4096

// countConn is a net.Conn that reports into a sockCounters.
type countConn struct {
	net.Conn
	c *sockCounters
}

func (cc *countConn) Write(p []byte) (int, error) {
	if at := cc.c.corruptAt.Load(); at > 0 && len(p) >= corruptMin && cc.c.large.Add(1) == at {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x5a
		p = q
	}
	t0 := time.Now()
	n, err := cc.Conn.Write(p)
	cc.c.writeNanos.Add(int64(time.Since(t0)))
	cc.c.writes.Add(1)
	cc.c.wbytes.Add(int64(n))
	return n, err
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.rbytes.Add(int64(n))
	return n, err
}

// countListener hands out countConns.
type countListener struct {
	net.Listener
	c *sockCounters
}

func (l *countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, c: l.c}, nil
}
