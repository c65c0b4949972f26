package adocmux

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/testutil"
	"adoc/internal/wire"
)

// captureConn records every byte written to the underlying connection,
// so tests can compare what actually went on the wire across runs.
type captureConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *captureConn) snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// runAgainstLegacyPeer drives one deterministic session against a peer
// that negotiated the trace capability OFF, optionally with a local
// tracer, and returns every byte the traced side wrote to the socket.
// Compression is pinned to level 0 and writes are paced into separate
// batches, so two runs differ only by what tracing adds to the wire.
func runAgainstLegacyPeer(t *testing.T, tracer *adoc.FlowTracer) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	legacyOpts := TransportOptions()
	legacyOpts.MinLevel, legacyOpts.MaxLevel = 0, 0

	type res struct {
		got []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			done <- res{nil, err}
			return
		}
		// A build that predates flow tracing.
		conn, err := adocnet.Handshake(testutil.ClearHandshakeBits(raw, wire.HandshakeFlagTrace, 0), legacyOpts)
		if err != nil {
			done <- res{nil, err}
			return
		}
		defer conn.Close()
		sess, err := Server(conn, Config{})
		if err != nil {
			done <- res{nil, err}
			return
		}
		defer sess.Close()
		st, err := sess.AcceptStream()
		if err != nil {
			done <- res{nil, err}
			return
		}
		got, err := io.ReadAll(st)
		done <- res{got, err}
	}()

	tracedOpts := TransportOptions()
	tracedOpts.MinLevel, tracedOpts.MaxLevel = 0, 0
	tracedOpts.FlowTracer = tracer
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &captureConn{Conn: raw}
	conn, err := adocnet.Handshake(cc, tracedOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Negotiated().Trace {
		t.Fatal("legacy peer negotiated the trace capability")
	}
	sess, err := Client(conn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond) // each write = its own batch
		p := compressible(4000, int64(i))
		want = append(want, p...)
		if _, err := st.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.got, want) {
		t.Fatal("payload corrupted against legacy peer")
	}
	return cc.snapshot()
}

// TestLegacyPeerSeesByteIdenticalWire is the negotiation acceptance for
// the trace capability: against a flagless legacy peer, enabling tracing
// locally must not change a single wire byte — the spans still record
// locally, only cross-hop propagation is off.
func TestLegacyPeerSeesByteIdenticalWire(t *testing.T) {
	plain := runAgainstLegacyPeer(t, nil)
	tracer := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 1, Metrics: adoc.NewMetricsRegistry()})
	traced := runAgainstLegacyPeer(t, tracer)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("wire bytes differ with local tracing enabled: %d vs %d bytes",
			len(plain), len(traced))
	}
	if tracer.Total() == 0 {
		t.Fatal("local tracing recorded nothing against the legacy peer")
	}
}

// tracedSessionPair joins two sessions whose endpoints carry distinct
// tracers, so each side's spans are attributable.
func tracedSessionPair(t *testing.T, cliT, srvT *adoc.FlowTracer) (*Session, *Session) {
	t.Helper()
	srvOpts := TransportOptions()
	srvOpts.FlowTracer = srvT
	ln, err := adocnet.Listen("tcp", "127.0.0.1:0", srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   *adocnet.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cliOpts := TransportOptions()
	cliOpts.FlowTracer = cliT
	cliConn, err := adocnet.Dial("tcp", ln.Addr().String(), cliOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	cli, err := Client(cliConn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Server(srv.c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); sess.Close() })
	return cli, sess
}

// TestTraceContextCrossesSession: the sampled bit and 8-byte trace ID
// ride the batch metadata, so the receiving endpoint's tracer records
// receive/deliver spans under trace IDs the SENDING endpoint issued.
func TestTraceContextCrossesSession(t *testing.T) {
	cliT := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 1, Metrics: adoc.NewMetricsRegistry()})
	srvT := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 1, Metrics: adoc.NewMetricsRegistry()})
	cli, srv := tracedSessionPair(t, cliT, srvT)

	accepted := make(chan []byte, 1)
	go func() {
		st, err := srv.AcceptStream()
		if err != nil {
			accepted <- nil
			return
		}
		got, _ := io.ReadAll(st)
		accepted <- got
	}()

	st, err := cli.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	msg := compressible(1000, 7)
	if _, err := st.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if got := <-accepted; !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted")
	}

	// The client's engine records its wire span when its Write returns,
	// which can be after the server already has the bytes: wait for it.
	issued := map[uint64]bool{}
	for deadline := time.Now().Add(5 * time.Second); len(issued) == 0 && time.Now().Before(deadline); {
		for _, s := range cliT.Spans(0, 0) {
			issued[s.TraceID] = true
		}
		if len(issued) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if len(issued) == 0 {
		t.Fatal("client tracer issued no spans")
	}
	var gotReceive, gotDeliver bool
	for _, s := range srvT.Spans(0, 0) {
		if !issued[s.TraceID] {
			continue
		}
		switch s.Stage {
		case adoc.StageReceive:
			gotReceive = true
		case adoc.StageDeliver:
			gotDeliver = true
		}
	}
	if !gotReceive || !gotDeliver {
		t.Fatalf("server side missing spans under client trace IDs: receive=%v deliver=%v\nserver spans: %+v",
			gotReceive, gotDeliver, srvT.Spans(0, 0))
	}
}
