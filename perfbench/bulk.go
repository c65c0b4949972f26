package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/netsim"
)

// bulkMix: whole messages of 128 KB to 8 MB, a fresh connection every
// eighth message.
var bulkMix = mix{
	minSize: 128 << 10, maxSize: 8 << 20,
	strata: 16, blocks: 4, poolSize: 12 << 20,
	freshEvery: 8, sha: true, warmSize: 128 << 10,
}

// bulkAddr is the receiver's address on the simulated fabric.
const bulkAddr = "bulk-recv"

// bulkLink is the simulated link: the paper's 100 Mbit LAN without noise,
// paced on the wall clock.
func bulkLink(seed int64) netsim.Profile { return netsim.Quiet(netsim.LAN100(seed)) }

// msgConn is one end of a message transport: the AdOC stack or the bare
// length-prefixed baseline.
type msgConn interface {
	send(p []byte) error
	recv(w io.Writer) (int64, error)
	stats() adoc.Stats
	Close() error
}

type adocMsgConn struct{ *adocnet.Conn }

func (c adocMsgConn) send(p []byte) error             { _, err := c.WriteMessage(p); return err }
func (c adocMsgConn) recv(w io.Writer) (int64, error) { return c.ReceiveMessage(w) }
func (c adocMsgConn) stats() adoc.Stats               { return c.CounterStats() }

// rawMsgConn frames each message as an 8-byte length and plain writes.
type rawMsgConn struct{ net.Conn }

func (c rawMsgConn) send(p []byte) error {
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], uint64(len(p)))
	if _, err := c.Write(h[:]); err != nil {
		return err
	}
	_, err := c.Write(p)
	return err
}

func (c rawMsgConn) recv(w io.Writer) (int64, error) {
	var h [8]byte
	if _, err := io.ReadFull(c, h[:]); err != nil {
		return 0, err
	}
	return io.CopyN(w, c, int64(binary.BigEndian.Uint64(h[:])))
}

func (c rawMsgConn) stats() adoc.Stats { return adoc.Stats{} }

// bulkResult is the receiver's verdict on one message of connection gen.
type bulkResult struct {
	gen        int
	n          int64
	sum        [sha256.Size]byte
	start, end time.Time
	err        error
}

// bulkStack is one sender and one receiver across a simulated link. The
// sender opens connections and sends messages one at a time; the receiver
// accepts, hashes each message as it arrives and reports back.
type bulkStack struct {
	in      *inputs
	nw      *netsim.Network
	ln      net.Listener
	sock    *sockCounters
	upgrade func(net.Conn) (msgConn, error)
	adoc    bool

	conn    msgConn
	gen     int
	retired adoc.Stats
	results chan bulkResult
	done    chan struct{}
	wg      sync.WaitGroup
}

// newBulk builds the receiver side: the simulated fabric and its
// listener. With useAdoc false it is the bare-transport baseline.
func newBulk(in *inputs, sock *sockCounters, useAdoc bool) (*bulkStack, error) {
	s := &bulkStack{in: in, sock: sock, adoc: useAdoc,
		nw: netsim.NewNetwork(bulkLink(in.seed)), results: make(chan bulkResult), done: make(chan struct{})}
	opts := adocnet.Defaults()
	s.upgrade = func(c net.Conn) (msgConn, error) { return rawMsgConn{c}, nil }
	if useAdoc {
		s.upgrade = func(c net.Conn) (msgConn, error) {
			ac, err := adocnet.Handshake(c, opts)
			if err != nil {
				return nil, err
			}
			return adocMsgConn{ac}, nil
		}
	}
	ln, err := s.nw.Listen(bulkAddr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *bulkStack) acceptLoop() {
	defer s.wg.Done()
	for gen := 1; ; gen++ {
		raw, err := s.ln.Accept()
		if err != nil {
			return
		}
		c, err := s.upgrade(raw)
		if err != nil {
			raw.Close()
			continue
		}
		s.wg.Add(1)
		go s.recvLoop(c, gen)
	}
}

func (s *bulkStack) recvLoop(c msgConn, gen int) {
	defer s.wg.Done()
	defer c.Close()
	for {
		h := sha256.New()
		r := bulkResult{gen: gen, start: time.Now()}
		r.n, r.err = c.recv(h)
		r.end = time.Now()
		h.Sum(r.sum[:0])
		select {
		case s.results <- r:
		case <-s.done:
			return
		}
		if r.err != nil {
			return
		}
	}
}

// dial replaces the sender's connection with a fresh one.
func (s *bulkStack) dial(i int, tr *tracer, parent int32) error {
	s.drop()
	s.gen++
	t0 := time.Now()
	raw, err := s.nw.Dial(bulkAddr)
	t1 := time.Now()
	tr.add("netsim.Dial", int64(i), parent, t0, t1)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	c, err := s.upgrade(&countConn{Conn: raw, c: s.sock})
	if s.adoc {
		tr.add("adocnet.Handshake", int64(i), parent, t1, time.Now())
	}
	if err != nil {
		raw.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	s.conn = c
	return nil
}

// drop closes the sender's connection, keeping its counters.
func (s *bulkStack) drop() {
	if s.conn != nil {
		s.retired.Accumulate(s.conn.stats())
		s.conn.Close()
		s.conn = nil
	}
}

func (s *bulkStack) do(_, i int, tr *tracer, parent int32) (int64, error) {
	o := s.in.op(i)
	p := s.in.payload(i)
	if s.conn == nil || o.fresh {
		if err := s.dial(i, tr, parent); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	err := s.conn.send(p)
	t1 := time.Now()
	tr.add("adoc.Conn.WriteMessage", int64(i), parent, t0, t1)
	if err != nil {
		s.drop()
		return 0, fmt.Errorf("send: %w", err)
	}
	r, err := s.wait(5*time.Second + time.Duration(len(p))*time.Microsecond)
	if err != nil {
		s.drop()
		return 0, err
	}
	tr.add("adoc.Conn.ReceiveMessage", int64(i), parent, later(r.start, t0), r.end)
	tr.add("drain", int64(i), parent, t1, r.end)
	switch {
	case r.n != int64(len(p)):
		s.drop()
		return 0, fmt.Errorf("received %d of %d bytes", r.n, len(p))
	case r.sum != o.sum:
		s.drop()
		return 0, errors.New("received bytes differ from those sent (SHA-256 mismatch)")
	}
	return r.n, nil
}

// wait returns the receiver's result for the current connection,
// discarding late reports from connections already replaced.
func (s *bulkStack) wait(timeout time.Duration) (bulkResult, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case r := <-s.results:
			if r.gen != s.gen {
				continue
			}
			if r.err != nil {
				return r, fmt.Errorf("receive: %w", r.err)
			}
			return r, nil
		case <-t.C:
			return bulkResult{}, fmt.Errorf("no complete message after %v", timeout)
		}
	}
}

func (s *bulkStack) counters() layerSnap {
	e := s.retired
	if s.conn != nil {
		e.Accumulate(s.conn.stats())
	}
	return layerSnap{sock: s.sock.snap(), eng: e}
}

func (s *bulkStack) close() {
	s.drop()
	s.ln.Close()
	close(s.done)
	s.wg.Wait()
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
