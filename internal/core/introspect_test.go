package core

import (
	"bytes"
	"testing"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/obs"
)

// spanCounts tallies spans by stage.
func spanCounts(spans []obs.Span) map[string]int {
	n := map[string]int{}
	for _, s := range spans {
		n[s.Stage]++
	}
	return n
}

// TestTracedRoundTrip drives the receive-side trace adoption the mux
// demux loop relies on, at the engine: spans measured before the
// consumer finds the sender's context stay pending, adopting a sampled
// context flushes them under its ID, later groups record directly, and
// the next message starts unadopted again.
func TestTracedRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	sendTr := obs.NewFlowTracer(obs.FlowTracerConfig{SampleEvery: 1, Metrics: reg})
	recvTr := obs.NewFlowTracer(obs.FlowTracerConfig{SampleEvery: 1, Metrics: reg})
	o := smallPipelineOptions()
	o.MinLevel = 2
	o.Metrics = reg
	s1, s2 := o, o
	s1.FlowTracer, s2.FlowTracer = sendTr, recvTr
	e1, e2 := pipePairOpts(t, s1, s2)
	if e2.FlowTracer() != recvTr {
		t.Fatal("FlowTracer() does not return the configured tracer")
	}

	tc := sendTr.SampleNext()
	if !tc.Sampled {
		t.Fatal("first batch not sampled")
	}
	data := compressibleData(64 * 1024)
	errCh := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessageTC(data, tc)
		errCh <- err
	}()

	if _, ok := e2.RecvTraceContext(); ok {
		t.Fatal("trace context adopted before any message arrived")
	}
	first, err := e2.ReadChunk()
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), first...)
	if n := recvTr.Total(); n != 0 {
		t.Fatalf("%d receive spans recorded before adoption, want all pending", n)
	}
	e2.AdoptRecvTrace(obs.TraceContext{ID: tc.ID}) // unsampled: ignored
	if _, ok := e2.RecvTraceContext(); ok {
		t.Fatal("an unsampled context was adopted")
	}
	e2.AdoptRecvTrace(tc)
	if got, ok := e2.RecvTraceContext(); !ok || got != tc {
		t.Fatalf("RecvTraceContext = %v/%v, want %v/true", got, ok, tc)
	}
	if n := recvTr.Total(); n == 0 {
		t.Fatal("adoption flushed no pending spans")
	}
	for len(got) < len(data) {
		chunk, err := e2.ReadChunk()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("traced message corrupted")
	}

	groups := len(data) / o.BufferSize
	recv := recvTr.Spans(tc.ID, 0)
	rc := spanCounts(recv)
	if rc[obs.StageReceive] != groups || rc[obs.StageDecompress] != groups || rc[obs.StageDeliver] != groups {
		t.Fatalf("receive-side spans %v, want %d receive/decompress/deliver", rc, groups)
	}
	for _, s := range recv {
		if s.Stage == obs.StageDecompress && (s.Level < 2 || s.Bytes != o.BufferSize) {
			t.Fatalf("decompress span level %d bytes %d, want level >= 2 and %d bytes", s.Level, s.Bytes, o.BufferSize)
		}
	}
	if sc := spanCounts(sendTr.Spans(tc.ID, 0)); sc[obs.StageCompress] != groups || sc[obs.StageWire] == 0 {
		t.Fatalf("send-side spans %v, want %d compress and some wire", sc, groups)
	}

	// An untraced message resets adoption when it starts.
	go func() {
		_, err := e1.WriteMessage(data)
		errCh <- err
	}()
	if _, err := e2.ReadChunk(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.RecvTraceContext(); ok {
		t.Fatal("the previous message's trace context leaked into the next")
	}
	before := recvTr.Total()
	for n := o.BufferSize; n < len(data); {
		chunk, err := e2.ReadChunk()
		if err != nil {
			t.Fatal(err)
		}
		n += len(chunk)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if after := recvTr.Total(); after != before {
		t.Fatalf("untraced message recorded %d spans", after-before)
	}
}

// TestStatsAccumulate pins the aggregation rule multi-connection holders
// share: counters add, QueueHighWater keeps the maximum, LevelCount sums
// into a fresh slice, and Adapt is left alone.
func TestStatsAccumulate(t *testing.T) {
	shared := []int64{1, 2}
	s := Stats{
		MsgsSent: 1, MsgsReceived: 2, RawSent: 3, WireSent: 4,
		RawReceived: 5, WireReceived: 6, SmallSent: 7, ProbeBypasses: 8,
		QueueHighWater: 9,
		Controller: adapt.Stats{Updates: 1, Divergences: 2, Pins: 3, EntropyBypasses: 4,
			LevelCount: shared},
		Adapt: adapt.Snapshot{Level: 3},
	}
	s.Accumulate(Stats{
		MsgsSent: 10, MsgsReceived: 20, RawSent: 30, WireSent: 40,
		RawReceived: 50, WireReceived: 60, SmallSent: 70, ProbeBypasses: 80,
		QueueHighWater: 5,
		Controller: adapt.Stats{Updates: 10, Divergences: 20, Pins: 30, EntropyBypasses: 40,
			LevelCount: []int64{10, 20, 30}},
		Adapt: adapt.Snapshot{Level: 7},
	})
	if s.MsgsSent != 11 || s.MsgsReceived != 22 || s.RawSent != 33 || s.WireSent != 44 ||
		s.RawReceived != 55 || s.WireReceived != 66 || s.SmallSent != 77 || s.ProbeBypasses != 88 {
		t.Fatalf("counters did not add: %+v", s)
	}
	if s.QueueHighWater != 9 {
		t.Fatalf("QueueHighWater = %d, want the maximum 9", s.QueueHighWater)
	}
	c := s.Controller
	if c.Updates != 11 || c.Divergences != 22 || c.Pins != 33 || c.EntropyBypasses != 44 {
		t.Fatalf("controller counters did not add: %+v", c)
	}
	if want := []int64{11, 22, 30}; len(c.LevelCount) != 3 || c.LevelCount[0] != want[0] ||
		c.LevelCount[1] != want[1] || c.LevelCount[2] != want[2] {
		t.Fatalf("LevelCount = %v, want %v", c.LevelCount, want)
	}
	if shared[0] != 1 || shared[1] != 2 {
		t.Fatalf("Accumulate wrote through the receiver's LevelCount: %v", shared)
	}
	if s.Adapt.Level != 3 {
		t.Fatalf("Adapt.Level = %d, want it untouched at 3", s.Adapt.Level)
	}

	s.Accumulate(Stats{QueueHighWater: 12})
	if s.QueueHighWater != 12 {
		t.Fatalf("QueueHighWater = %d, want the new maximum 12", s.QueueHighWater)
	}
	var empty Stats
	empty.Accumulate(Stats{})
	if empty.Controller.LevelCount != nil {
		t.Fatalf("empty accumulate allocated LevelCount %v", empty.Controller.LevelCount)
	}
}

// TestFillConnState checks the engine's /debug/conns fill: the snapshot
// served from the connection table carries the engine's counters, its
// ratio, the controller level, and the last adapt transition.
func TestFillConnState(t *testing.T) {
	reg := obs.NewRegistry()
	o := smallPipelineOptions()
	o.MinLevel = 2
	o.Metrics = reg
	e1, e2 := pipePair(t, o)
	if e1.Options().BufferSize != o.BufferSize {
		t.Fatalf("Options().BufferSize = %d, want %d", e1.Options().BufferSize, o.BufferSize)
	}
	data := compressibleData(64 * 1024)
	sendRecv(t, e1, e2, data)

	at := time.Unix(1700000000, 0)
	e1.noteTransition(adapt.Transition{At: at, From: 2, To: 4, Cause: "test"})
	snd, ok := reg.Conns().Get(e1.Handle().ID())
	if !ok {
		t.Fatal("sender not in the connection table")
	}
	st := e1.Stats()
	if snd.MsgsSent != 1 || snd.RawBytesSent != st.RawSent || snd.WireBytesSent != st.WireSent {
		t.Fatalf("sender state %+v does not match Stats %+v", snd, st)
	}
	if snd.RawBytesSent != int64(len(data)) || snd.WireBytesSent >= snd.RawBytesSent {
		t.Fatalf("sender bytes raw %d wire %d for %d compressible bytes", snd.RawBytesSent, snd.WireBytesSent, len(data))
	}
	if snd.CompressionRatio != e1.CompressionRatio() || snd.CompressionRatio <= 1 {
		t.Fatalf("CompressionRatio = %v, engine says %v", snd.CompressionRatio, e1.CompressionRatio())
	}
	if lvl := codec.Level(snd.Level); lvl < 2 || !lvl.Valid() {
		t.Fatalf("Level = %d, want a forced compression level", snd.Level)
	}
	tr := snd.LastTransition
	if tr == nil || !tr.At.Equal(at) || tr.From != 2 || tr.To != 4 || tr.Cause != "test" {
		t.Fatalf("LastTransition = %+v", tr)
	}

	rcv, ok := reg.Conns().Get(e2.Handle().ID())
	if !ok {
		t.Fatal("receiver not in the connection table")
	}
	// The message-end frame is counted after the payload is delivered, so
	// only the payload-side counters are settled here.
	if rcv.RawBytesRecv != int64(len(data)) || rcv.WireBytesRecv == 0 || rcv.WireBytesRecv > snd.WireBytesSent {
		t.Fatalf("receiver state %+v, sender wrote %d wire bytes", rcv, snd.WireBytesSent)
	}
	if e2.Events() != reg.Events() {
		t.Fatal("Events() is not the bound registry's bus")
	}
}

// TestFillConnStateLinkBps checks that /debug/conns shows the link
// estimate that decides the fast-link bypass: 0 before anything was
// measured, then the measured speed. The table is polled while the
// message is in flight, as an operator's request would be, so the race
// detector sees the fill read the estimate without wmu.
func TestFillConnStateLinkBps(t *testing.T) {
	reg := obs.NewRegistry()
	l := newMeteredLink(1e6, 0)
	o := DefaultOptions()
	o.Clock = l.clk
	o.Metrics = reg
	e, err := New(l, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if st, _ := reg.Conns().Get(e.Handle().ID()); st.LinkBps != 0 {
		t.Fatalf("LinkBps = %v before any write, want 0", st.LinkBps)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.WriteMessage(incompressibleData(1<<20, 1)); err != nil {
			t.Error(err)
		}
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			reg.Conns().Get(e.Handle().ID())
		}
	}
	st, _ := reg.Conns().Get(e.Handle().ID())
	if st.LinkBps != e.link.Bps() || st.LinkBps < 0.5e6 || st.LinkBps > 2e6 {
		t.Fatalf("LinkBps = %v on a 1 MB/s link (engine estimate %v)", st.LinkBps, e.link.Bps())
	}
}
