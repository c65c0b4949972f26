package core

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// Engine errors.
var (
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("adoc: connection closed")
	// ErrMidMessage is returned by ReceiveMessage when the previous
	// message has not been fully consumed by Read.
	ErrMidMessage = errors.New("adoc: previous message not fully read")
	// ErrAbandoned is returned by every receive call after ReceiveMessage
	// gave up on a stream message before its end, because the message or
	// the caller's writer failed: the rest of that message is unread, so
	// the receive side is out of step with the wire until Close. The
	// error returned wraps the cause.
	ErrAbandoned = errors.New("adoc: receive abandoned mid-message")
)

// recvReadAhead is the engine's read-ahead buffer on the connection: one
// read brings in the frame headers and payloads of a whole small group
// instead of a system call per header field.
const recvReadAhead = 16 << 10

// Engine is the per-connection AdOC state: the sender-side adaptive
// controller (level choices and bandwidth history persist across messages,
// as in the C library where they live behind the descriptor) and the
// receiver-side partial-read buffers that adoc_close frees.
//
// An Engine is safe for concurrent use: writes are serialized among
// themselves, reads among themselves, and reads run concurrently with
// writes (full-duplex).
type Engine struct {
	rw   io.ReadWriter
	opts Options
	ctrl *adapt.Controller

	wmu sync.Mutex // serializes senders
	rmu sync.Mutex // serializes receivers

	closed atomic.Bool

	// Receiver state, guarded by rmu; cur additionally by curMu so Close
	// can abort it without waiting for a blocked Read.
	dec      *wire.Reader
	recvBuf  bytes.Buffer // decompressed, not yet consumed by Read
	smallBuf []byte       // reusable small-payload buffer of the receive step
	curMu    sync.Mutex
	cur      *streamState // in-progress pipelined stream message, if any
	one      oneBufferMsg // in-progress one-buffer stream message, if active
	// abandoned is the sticky ErrAbandoned every receive returns once a
	// stream message was dropped before its end.
	abandoned error

	// sendTC is the flow-trace context of the in-progress write; written
	// at the top of every write while wmu is held, so the send pipeline
	// (which outlives no single write — writeMessage joins its emitter
	// before returning) reads a stable value.
	sendTC obs.TraceContext
	// sink frames the Writes made on the caller's goroutine: one-buffer
	// messages, the probe prefix, the raw bypass and a lone MsgEnd.
	// Guarded by wmu; its buffer is pooled between Writes.
	sink frameSink

	// rt buffers receive-side spans until the consumer layer (the mux
	// demux loop) extracts the sender's trace context from the decoded
	// payload and adopts it — the trace ID rides inside the compressed
	// bytes, so receive and decompress spans are measured before the
	// engine can know which trace they belong to.
	rt recvTraceState

	stats engineStats

	// link is the measured link speed that decides the fast-link bypass.
	link linkEstimate

	// Live-introspection wiring: the registry's connection table entry,
	// its event bus, and the most recent adapt transition (served by the
	// /debug/conns fill callback).
	handle         *obs.ConnHandle
	events         *obs.EventBus
	lastTransition atomic.Pointer[adapt.Transition]
}

// recvTraceState is the adoption buffer for receive-side spans of the
// in-progress message. Guarded by its own mutex: the reception and
// decode goroutines record concurrently with the consumer adopting.
type recvTraceState struct {
	mu      sync.Mutex
	tc      obs.TraceContext
	adopted bool
	pending []obs.Span
}

// maxPendingRecvSpans bounds the spans buffered while a message's trace
// context is still unknown; one batch rarely exceeds a handful of
// groups, so overflow just drops the tail.
const maxPendingRecvSpans = 64

// resetRecvTrace starts a new receive message: unadopted spans belong to
// a message that turned out not to carry a trace context and are
// dropped.
func (e *Engine) resetRecvTrace() {
	if !e.opts.FlowTracer.Enabled() {
		return
	}
	e.rt.mu.Lock()
	e.rt.adopted = false
	e.rt.tc = obs.TraceContext{}
	e.rt.pending = e.rt.pending[:0]
	e.rt.mu.Unlock()
}

// recordRecvSpan records one receive-side stage span: directly once a
// trace context has been adopted, else buffered pending adoption.
func (e *Engine) recordRecvSpan(stage string, start time.Time, dur time.Duration, bytes, level int) {
	tr := e.opts.FlowTracer
	if !tr.Enabled() {
		return
	}
	e.rt.mu.Lock()
	if e.rt.adopted {
		tc := e.rt.tc
		e.rt.mu.Unlock()
		tr.Record(tc, 0, stage, start, dur, bytes, level)
		return
	}
	if len(e.rt.pending) < maxPendingRecvSpans {
		e.rt.pending = append(e.rt.pending, obs.Span{
			Stage: stage, Start: start, Dur: dur, Bytes: bytes, Level: level,
		})
	}
	e.rt.mu.Unlock()
}

// AdoptRecvTrace attaches the sender's trace context to the in-progress
// receive message, flushing spans measured before the context was known.
// The consumer layer calls it when it finds the context in the decoded
// payload (a mux MuxTrace frame); it is a no-op without a tracer or for
// unsampled contexts.
func (e *Engine) AdoptRecvTrace(tc obs.TraceContext) {
	tr := e.opts.FlowTracer
	if !tr.Enabled() || !tc.Sampled {
		return
	}
	e.rt.mu.Lock()
	e.rt.adopted = true
	e.rt.tc = tc
	for _, s := range e.rt.pending {
		tr.Record(tc, s.StreamID, s.Stage, s.Start, s.Dur, s.Bytes, s.Level)
	}
	e.rt.pending = e.rt.pending[:0]
	e.rt.mu.Unlock()
}

// RecvTraceContext returns the trace context adopted for the receive
// message currently being delivered, and whether one has been adopted.
// Demultiplexers use it to attribute per-stream delivery spans after
// finding the context at the head of the decoded payload.
func (e *Engine) RecvTraceContext() (obs.TraceContext, bool) {
	if !e.opts.FlowTracer.Enabled() {
		return obs.TraceContext{}, false
	}
	e.rt.mu.Lock()
	tc, ok := e.rt.tc, e.rt.adopted
	e.rt.mu.Unlock()
	return tc, ok
}

// FlowTracer returns the tracer this engine records spans into (nil when
// tracing is not configured).
func (e *Engine) FlowTracer() *obs.FlowTracer { return e.opts.FlowTracer }

// engineStats aggregates counters. The additive fields are obs counters —
// children of the bound registry's family roots, so each increment serves
// this engine's Stats() and the registry's process totals with the same
// atomic adds (no allocations, no locks, no fold-on-close). queueHigh is a
// plain atomic because it tracks a maximum, which has no meaningful
// process-wide sum.
type engineStats struct {
	msgsSent      *obs.Counter
	msgsReceived  *obs.Counter
	rawSent       *obs.Counter
	wireSent      *obs.Counter
	rawReceived   *obs.Counter
	wireReceived  *obs.Counter
	smallSent     *obs.Counter
	probeBypasses *obs.Counter
	queueHigh     atomic.Int64
}

// Registry metric families the engine publishes.
const (
	MetricMsgsSent      = "adoc_engine_messages_sent_total"
	MetricMsgsReceived  = "adoc_engine_messages_received_total"
	MetricRawSent       = "adoc_engine_raw_bytes_sent_total"
	MetricWireSent      = "adoc_engine_wire_bytes_sent_total"
	MetricRawReceived   = "adoc_engine_raw_bytes_received_total"
	MetricWireReceived  = "adoc_engine_wire_bytes_received_total"
	MetricSmallSent     = "adoc_engine_small_messages_total"
	MetricProbeBypasses = "adoc_engine_probe_bypasses_total"
)

// bindEngineStats creates this engine's counter children under reg's
// family roots.
func bindEngineStats(reg *obs.Registry) engineStats {
	return engineStats{
		msgsSent:      reg.Counter(MetricMsgsSent, "Messages accepted for sending.").Child(),
		msgsReceived:  reg.Counter(MetricMsgsReceived, "Messages fully received.").Child(),
		rawSent:       reg.Counter(MetricRawSent, "User payload bytes accepted by Write/SendMessage.").Child(),
		wireSent:      reg.Counter(MetricWireSent, "Bytes written to the socket (compressed plus framing).").Child(),
		rawReceived:   reg.Counter(MetricRawReceived, "User payload bytes delivered to Read.").Child(),
		wireReceived:  reg.Counter(MetricWireReceived, "Bytes consumed from the socket.").Child(),
		smallSent:     reg.Counter(MetricSmallSent, "Messages that took the no-pipeline small fast path.").Child(),
		probeBypasses: reg.Counter(MetricProbeBypasses, "Messages sent raw because the link estimate exceeded the fast cutoff.").Child(),
	}
}

// Stats is a snapshot of engine activity.
type Stats struct {
	MsgsSent, MsgsReceived int64
	// RawSent is user payload accepted by Write/SendMessage; WireSent is
	// what actually hit the socket (compressed plus framing).
	RawSent, WireSent         int64
	RawReceived, WireReceived int64
	// SmallSent counts messages that took the no-pipeline fast path.
	SmallSent int64
	// ProbeBypasses counts messages sent raw because the link estimate
	// exceeded the fast cutoff.
	ProbeBypasses int64
	// QueueHighWater is the maximum FIFO occupancy seen on this engine.
	QueueHighWater int64
	// Controller reports the adaptive-controller counters.
	Controller adapt.Stats
	// Adapt is the controller's instantaneous decision state — current
	// level, forbidden set, pin countdown, per-level bandwidth EWMAs —
	// the "why is the level what it is" view. Unlike the counters above
	// it is not additive; per-connection aggregators (adocnet.Server)
	// leave it zero.
	Adapt adapt.Snapshot
}

// Accumulate folds another snapshot's additive counters into s — the one
// aggregation rule every multi-connection holder (adocnet.Server,
// adocrpc.Pool) shares. Counters add and QueueHighWater keeps the
// maximum. The controller's LevelCount is summed into a freshly
// allocated slice: s frequently starts as a shallow copy of a retained
// aggregate, and adding in place would write through the shared backing
// array into the holder's state. The non-additive Adapt snapshot is
// neither read from o nor touched on s.
func (s *Stats) Accumulate(o Stats) {
	s.MsgsSent += o.MsgsSent
	s.MsgsReceived += o.MsgsReceived
	s.RawSent += o.RawSent
	s.WireSent += o.WireSent
	s.RawReceived += o.RawReceived
	s.WireReceived += o.WireReceived
	s.SmallSent += o.SmallSent
	s.ProbeBypasses += o.ProbeBypasses
	if o.QueueHighWater > s.QueueHighWater {
		s.QueueHighWater = o.QueueHighWater
	}
	s.Controller.Updates += o.Controller.Updates
	s.Controller.Divergences += o.Controller.Divergences
	s.Controller.Pins += o.Controller.Pins
	s.Controller.EntropyBypasses += o.Controller.EntropyBypasses
	if len(o.Controller.LevelCount) > 0 || len(s.Controller.LevelCount) > 0 {
		lc := make([]int64, max(len(o.Controller.LevelCount), len(s.Controller.LevelCount)))
		copy(lc, s.Controller.LevelCount)
		for i, n := range o.Controller.LevelCount {
			lc[i] += n
		}
		s.Controller.LevelCount = lc
	}
}

// New wraps a bidirectional connection in an AdOC engine.
func New(rw io.ReadWriter, opts Options) (*Engine, error) {
	opts, err := opts.Effective()
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	// A configured logger observes every controller transition at Debug;
	// it chains in front of (not instead of) the caller's own hook.
	onTransition := opts.Trace.OnTransition
	if logger := opts.Logger; logger != nil {
		inner := onTransition
		onTransition = func(tr adapt.Transition) {
			logger.Debug("adoc adapt transition",
				"from", int(tr.From), "to", int(tr.To), "cause", tr.Cause)
			if inner != nil {
				inner(tr)
			}
		}
	}
	defaultPool.RegisterMetrics(reg)
	bufpool.Default.RegisterMetrics(reg)
	e := &Engine{
		rw:     rw,
		opts:   opts,
		dec:    wire.NewReaderSize(rw, recvReadAhead),
		stats:  bindEngineStats(reg),
		events: reg.Events(),
	}
	// The engine observes its own transitions (last-transition snapshot
	// for /debug/conns, adapt event on the bus) in front of the chain
	// built above.
	inner := onTransition
	onTransition = func(tr adapt.Transition) {
		e.noteTransition(tr)
		if inner != nil {
			inner(tr)
		}
	}
	e.ctrl = adapt.New(adapt.Config{
		Min:          opts.MinLevel,
		Max:          opts.MaxLevel,
		Clock:        opts.Clock,
		OnDivergence: opts.Trace.OnDivergence,
		OnTransition: onTransition,
		Metrics:      reg,
	})
	// Register in the connection table after ctrl exists: the fill
	// callback snapshots the controller on every /debug/conns request.
	e.handle = reg.Conns().Register("engine", e.fillConnState)
	e.handle.SetConfig(obs.ConnConfig{
		PacketSize:  opts.PacketSize,
		BufferSize:  opts.BufferSize,
		LevelBounds: [2]int{int(opts.MinLevel), int(opts.MaxLevel)},
		Trace:       opts.FlowTracer.Enabled(),
	})
	if c, ok := rw.(interface {
		LocalAddr() net.Addr
		RemoteAddr() net.Addr
	}); ok {
		e.handle.SetAddrs(c.LocalAddr().String(), c.RemoteAddr().String())
	}
	return e, nil
}

// noteTransition records the controller's latest level change for
// introspection and publishes it as an adapt event.
func (e *Engine) noteTransition(tr adapt.Transition) {
	t := tr
	e.lastTransition.Store(&t)
	e.events.Publish(obs.Event{
		Type:  obs.EventAdapt,
		Conn:  e.handle.ID(),
		At:    tr.At,
		From:  int(tr.From),
		To:    int(tr.To),
		Cause: string(tr.Cause),
	})
}

// fillConnState populates the engine-owned fields of a /debug/conns
// snapshot: counters, ratio, the link estimate, and the controller's live
// decision state.
func (e *Engine) fillConnState(st *obs.ConnState) {
	st.MsgsSent = e.stats.msgsSent.Value()
	st.MsgsReceived = e.stats.msgsReceived.Value()
	st.RawBytesSent = e.stats.rawSent.Value()
	st.WireBytesSent = e.stats.wireSent.Value()
	st.RawBytesRecv = e.stats.rawReceived.Value()
	st.WireBytesRecv = e.stats.wireReceived.Value()
	st.CompressionRatio = e.CompressionRatio()
	st.LinkBps = e.link.Bps()
	snap := e.ctrl.Snapshot()
	st.Level = int(snap.Level)
	st.PinRemaining = snap.PinRemaining
	st.BypassRun = snap.BypassRun
	if tr := e.lastTransition.Load(); tr != nil {
		st.LastTransition = &obs.ConnTransition{
			At: tr.At, From: int(tr.From), To: int(tr.To), Cause: string(tr.Cause),
		}
	}
}

// Handle returns the engine's connection-table entry, for outer layers
// (adocnet, mux, gateways) to enrich with their own view.
func (e *Engine) Handle() *obs.ConnHandle { return e.handle }

// Events returns the event bus of the registry this engine is bound to.
func (e *Engine) Events() *obs.EventBus { return e.events }

// Options returns the engine's effective (sanitized) options.
func (e *Engine) Options() Options { return e.opts }

// Stats returns a snapshot of the engine counters plus the controller's
// Adapt decision state.
func (e *Engine) Stats() Stats {
	s := e.CounterStats()
	s.Adapt = e.ctrl.Snapshot()
	return s
}

// CounterStats is Stats without the Adapt snapshot — no allocations
// beyond the LevelCount copy. Aggregators that fold many connections
// (and deliberately discard the non-additive Adapt state, like
// adocnet.Server) use this to avoid building a snapshot per connection
// per poll.
func (e *Engine) CounterStats() Stats {
	return Stats{
		MsgsSent:       e.stats.msgsSent.Value(),
		MsgsReceived:   e.stats.msgsReceived.Value(),
		RawSent:        e.stats.rawSent.Value(),
		WireSent:       e.stats.wireSent.Value(),
		RawReceived:    e.stats.rawReceived.Value(),
		WireReceived:   e.stats.wireReceived.Value(),
		SmallSent:      e.stats.smallSent.Value(),
		ProbeBypasses:  e.stats.probeBypasses.Value(),
		QueueHighWater: e.stats.queueHigh.Load(),
		Controller:     e.ctrl.Stats(),
	}
}

// Close tears the engine down: in-flight operations fail, the partial-read
// buffers become unreachable (the GC equivalent of adoc_close freeing its
// temporary buffers), and the underlying connection is closed if it
// implements io.Closer.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.handle.Unregister()
	// Stop a reception goroutine waiting on a full window and a reader
	// waiting on a group.
	e.abortCurrentStream(ErrClosed)
	if c, ok := e.rw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// abortCurrentStream aborts the active receive pipeline, if any, without
// taking rmu (Close must not wait for a blocked Read).
func (e *Engine) abortCurrentStream(err error) {
	// cur is written under rmu; reading it without rmu here is acceptable
	// because abort is idempotent and the stream state outlives the
	// stream.
	if st := e.loadCur(); st != nil {
		st.abort(err)
	}
}

func (e *Engine) loadCur() *streamState {
	e.curMu.Lock()
	defer e.curMu.Unlock()
	return e.cur
}

func (e *Engine) storeCur(st *streamState) {
	e.curMu.Lock()
	defer e.curMu.Unlock()
	e.cur = st
}

// Controller exposes the adaptive controller (read-only use intended).
func (e *Engine) Controller() *adapt.Controller { return e.ctrl }

// CompressionRatio returns raw/wire over the engine lifetime for the send
// direction — the aggregate analogue of the value adoc_write reports via
// slen.
func (e *Engine) CompressionRatio() float64 {
	return codec.Ratio(int(e.stats.rawSent.Value()), int(e.stats.wireSent.Value()))
}
