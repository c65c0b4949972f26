package adocmux

import (
	"fmt"
	"os"
	"sync"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/wire"
)

// Session multiplexes streams over one negotiated connection. Create one
// with Client or Server (exactly one per side of a connection); both
// sides may then open and accept streams concurrently. All methods are
// safe for concurrent use.
type Session struct {
	conn    *adocnet.Conn
	cfg     Config
	client  bool
	metrics sessionMetrics

	// events is the registry's bus for stream-lifecycle events; connID
	// tags them with the underlying connection's inspection-table ID.
	events *adoc.EventBus
	connID uint64

	// Stream table and accept queue.
	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32
	idsSpent bool // the 31-bit ID space is used up; no more opens
	accept   chan *Stream
	err      error         // terminal session error, set once
	done     chan struct{} // closed when the session dies

	// Send side: frames from every stream coalesce, in enqueue order,
	// into sendBuf; the send loop swaps the buffer out and ships each
	// batch as one AdOC message through the shared adaptive pipeline.
	sendMu    sync.Mutex
	sendCond  *sync.Cond
	sendBuf   []byte
	spare     []byte // recycled batch buffer
	sending   bool   // a swapped-out batch is on the connection right now
	flushGone bool   // Close's flush wait timed out; stop waiting
	sendErr   error
	batchTC   adoc.TraceContext // trace context of the batch being built
}

// sampleBatchLocked runs under sendMu at the instant a new batch opens
// (first frame into an empty buffer): it makes the 1-in-N sampling
// decision and, when both peers negotiated the trace capability, puts
// the MuxTrace frame carrying the context at the head of the batch so
// the receiver adopts the trace before any data frame of the message.
// With a flagless peer the batch is still traced locally — the send-side
// spans record — but not a byte of the wire changes.
func (s *Session) sampleBatchLocked() {
	tr := s.conn.FlowTracer()
	if !tr.Enabled() {
		return
	}
	s.batchTC = tr.SampleNext()
	if s.batchTC.Sampled && s.conn.Negotiated().Trace {
		s.sendBuf = wire.AppendMuxTrace(s.sendBuf, s.batchTC.ID, true)
	}
}

// Client starts the session protocol on the dialing side of conn; it
// opens odd-numbered streams. The connection must have negotiated the
// mux capability (adocnet.Negotiated.Mux), and the session takes over
// the connection: no other reads or writes may touch it.
func Client(conn *adocnet.Conn, cfg Config) (*Session, error) {
	return newSession(conn, cfg, true)
}

// Server starts the session protocol on the accepting side of conn; it
// opens even-numbered streams. See Client for the contract.
func Server(conn *adocnet.Conn, cfg Config) (*Session, error) {
	return newSession(conn, cfg, false)
}

func newSession(conn *adocnet.Conn, cfg Config, client bool) (*Session, error) {
	if !conn.Negotiated().Mux {
		return nil, ErrMuxNotNegotiated
	}
	cfg = cfg.withDefaults()
	s := &Session{
		conn:    conn,
		cfg:     cfg,
		client:  client,
		metrics: newSessionMetrics(cfg.Metrics),
		streams: map[uint32]*Stream{},
		done:    make(chan struct{}),
	}
	s.accept = make(chan *Stream, s.cfg.AcceptBacklog)
	if client {
		s.nextID = 1
	} else {
		s.nextID = 2
	}
	// The session owns the connection now: tag its inspection handle and
	// keep the live stream count on it.
	h := conn.Inspect()
	h.SetKind("mux")
	h.SetStreams(s.NumStreams)
	s.events = adoc.Events(cfg.Metrics)
	s.connID = h.ID()
	s.sendCond = sync.NewCond(&s.sendMu)
	go s.sendLoop()
	go s.demuxLoop()
	return s, nil
}

// Conn returns the underlying negotiated connection (for Stats and
// Negotiated; do not read or write it while the session is alive).
func (s *Session) Conn() *adocnet.Conn { return s.conn }

// Stats returns the underlying connection's engine counters — the
// aggregate across every stream, since all of them share the one engine.
func (s *Session) Stats() adoc.Stats { return s.conn.Stats() }

// IsClosed reports whether the session has terminated (Close was called
// or the connection failed).
func (s *Session) IsClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// NumStreams returns the number of live streams.
func (s *Session) NumStreams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// OpenStream opens a new stream to the peer. It does not wait for the
// peer: the open frame is queued and the stream is immediately usable
// (writes consume the initial credit window).
func (s *Session) OpenStream() (*Stream, error) { return s.OpenStreamOrigin("") }

// OpenStreamOrigin is OpenStream carrying origin metadata — typically the
// originating client's address — in the open frame. The peer reads it
// back from Stream.Origin; gateways use it as the stable key for
// consistent-hash backend balancing. Origins longer than
// wire.MaxMuxOriginLen bytes are truncated.
func (s *Session) OpenStreamOrigin(origin string) (*Stream, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	if s.idsSpent {
		s.mu.Unlock()
		return nil, ErrStreamsExhausted
	}
	id := s.nextID
	if s.nextID >= ^uint32(0)-1 {
		// The increment below would wrap into the peer's ID space (or the
		// reserved 0), which is session-fatal at the peer; stop here.
		s.idsSpent = true
	} else {
		s.nextID += 2
	}
	st := newStream(s, id)
	st.origin = origin
	s.streams[id] = st
	s.mu.Unlock()
	s.metrics.opened.Inc()
	s.metrics.active.Inc()
	s.events.Publish(adoc.ObsEvent{
		Type: adoc.EventStream, Conn: s.connID, Stream: id, Action: "open",
	})

	// Control frames are built on the stack: enqueueCtl copies them into
	// the batch.
	var buf [wire.MuxHeaderLen + wire.MaxMuxOriginLen]byte
	var open []byte
	if origin != "" {
		open = wire.AppendMuxOpenOrigin(buf[:0], id, origin)
	} else {
		open = wire.AppendMuxOpen(buf[:0], id)
	}
	if err := s.enqueueCtl(open); err != nil {
		s.forget(id)
		return nil, err
	}
	s.grantSurplusWindow(st)
	return st, nil
}

// AcceptStream blocks until the peer opens a stream, the session dies
// (session error), or the session closes (ErrSessionClosed). Streams the
// peer opened shortly before a shutdown may still surface first — they
// fail on use with the session's terminal error.
func (s *Session) AcceptStream() (*Stream, error) {
	sessionErr := func() (*Stream, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, s.err
	}
	select {
	case <-s.done:
		// Dead sessions report their error even if undrained opens
		// remain queued.
		return sessionErr()
	default:
	}
	select {
	case st := <-s.accept:
		return st, nil
	case <-s.done:
		return sessionErr()
	}
}

// grantSurplusWindow tops a fresh stream's peer-visible credit up from
// the protocol-constant InitialWindow to this endpoint's configured
// window, keeping the local overrun budget in step with the grant.
func (s *Session) grantSurplusWindow(st *Stream) {
	if surplus := s.cfg.Window - InitialWindow; surplus > 0 {
		st.addRecvBudget(int64(surplus))
		s.enqueueWindow(st.id, uint32(surplus))
	}
}

// enqueueWindow queues one credit grant frame, counting it — the single
// choke point for every grant (steady-state, surplus, refund).
func (s *Session) enqueueWindow(id uint32, delta uint32) {
	s.metrics.windowGrants.Inc()
	var buf [wire.MuxHeaderLen + 4]byte
	s.enqueueCtl(wire.AppendMuxWindow(buf[:0], id, delta))
}

// closeFlushTimeout bounds how long Close waits for queued frames to
// reach the connection before tearing it down anyway: a peer that
// stopped reading must not be able to wedge shutdown.
const closeFlushTimeout = 5 * time.Second

// Close shuts the session down: queued frames are flushed (bounded by
// closeFlushTimeout), then the underlying connection closes and every
// stream fails with ErrSessionClosed. Close does not wait for in-flight
// streams to finish — callers that want a graceful end close their
// streams first.
func (s *Session) Close() error {
	// Flush what is queued AND in flight so a Close right after the last
	// write does not strand data. The wait ends early if the connection
	// already failed (sendErr) or the peer has stalled past the timeout.
	timer := time.AfterFunc(closeFlushTimeout, func() {
		s.sendMu.Lock()
		s.flushGone = true
		s.sendCond.Broadcast()
		s.sendMu.Unlock()
	})
	s.sendMu.Lock()
	for (len(s.sendBuf) > 0 || s.sending) && s.sendErr == nil && !s.flushGone {
		s.sendCond.Wait()
	}
	s.sendMu.Unlock()
	timer.Stop()
	s.fail(ErrSessionClosed)
	return nil
}

// fail terminates the session with err (first caller wins): the
// connection closes, both loops unwind, and every stream unblocks.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	// Clear the table so each stream's gauge decrement happens exactly
	// once, here — a later maybeForget finds the entry already gone and
	// leaves the gauge alone. Registration checks s.err first, so nothing
	// repopulates the table.
	clear(s.streams)
	s.mu.Unlock()
	s.metrics.active.Add(-int64(len(streams)))

	s.conn.Close() // unblocks the demux loop's ReadChunk and the send loop's write
	s.sendMu.Lock()
	if s.sendErr == nil {
		s.sendErr = err
	}
	s.sendCond.Broadcast()
	s.sendMu.Unlock()
	for _, st := range streams {
		st.sessionFailed(err)
	}
	close(s.done)
}

// forget drops a stream from the table. The gauge moves only when the
// entry was actually present, so a retire racing session failure (which
// empties the table) cannot decrement twice.
func (s *Session) forget(id uint32) {
	s.mu.Lock()
	_, present := s.streams[id]
	delete(s.streams, id)
	s.mu.Unlock()
	if present {
		s.metrics.active.Dec()
		s.events.Publish(adoc.ObsEvent{
			Type: adoc.EventStream, Conn: s.connID, Stream: id, Action: "close",
		})
	}
}

func (s *Session) lookup(id uint32) *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// ---- send path ----

// enqueueCtl appends an encoded control frame to the outgoing batch. It
// never blocks — control frames (open, FIN, window grants) are tiny, and
// the demux loop must be able to issue them without risking a deadlock
// against a full data queue.
func (s *Session) enqueueCtl(frame []byte) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.sendErr != nil {
		return s.sendErr
	}
	if len(s.sendBuf) == 0 {
		s.sampleBatchLocked()
	}
	s.sendBuf = append(s.sendBuf, frame...)
	s.sendCond.Signal()
	return nil
}

// enqueueData appends one data frame, blocking while the outgoing batch
// is over MaxBatch — the backpressure that couples stream writers to the
// connection's real throughput. The caller has already acquired window
// credit for p. A write deadline expiring on st aborts the wait with
// os.ErrDeadlineExceeded before any of p enters the batch (the caller
// refunds the credit).
func (s *Session) enqueueData(id uint32, p []byte, st *Stream) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	for len(s.sendBuf) > s.cfg.MaxBatch && s.sendErr == nil {
		if st.writeWait() {
			return os.ErrDeadlineExceeded
		}
		s.sendCond.Wait()
	}
	if s.sendErr != nil {
		return s.sendErr
	}
	if len(s.sendBuf) == 0 {
		s.sampleBatchLocked()
	}
	s.sendBuf = wire.AppendMuxData(s.sendBuf, id, p)
	s.sendCond.Signal()
	return nil
}

// wakeSenders pokes every goroutine waiting on the send-side condition —
// used by deadline timers, whose expiry is observed inside those waits.
func (s *Session) wakeSenders() {
	s.sendMu.Lock()
	s.sendCond.Broadcast()
	s.sendMu.Unlock()
}

// sendLoop ships coalesced batches as ordinary AdOC messages. One
// message per wakeup: under load the batch grows while the previous
// message is in flight, so bulk traffic arrives at the engine in spans
// large enough for the adaptive pipeline, while sparse traffic ships
// immediately in small raw messages.
func (s *Session) sendLoop() {
	s.sendMu.Lock()
	for {
		for len(s.sendBuf) == 0 && s.sendErr == nil {
			s.sendCond.Wait()
		}
		if s.sendErr != nil {
			s.sendMu.Unlock()
			return
		}
		batch := s.sendBuf
		tc := s.batchTC
		s.batchTC = adoc.TraceContext{}
		s.sendBuf = s.spare[:0]
		s.spare = nil
		s.sending = true
		s.sendCond.Broadcast() // writers waiting on MaxBatch
		s.sendMu.Unlock()

		_, err := s.conn.WriteMessageTC(batch, tc)
		if err == nil {
			s.metrics.batches.Inc()
			s.metrics.batchBytes.Add(int64(len(batch)))
		}

		s.sendMu.Lock()
		s.spare = batch[:0]
		s.sending = false
		s.sendCond.Broadcast() // Close waiting for the in-flight batch
		if err != nil {
			s.sendMu.Unlock()
			s.fail(err)
			return
		}
	}
}

// ---- receive path ----

// demuxLoop drains the connection and routes frames. It consumes the
// byte stream via ReadChunk — each span is one decoded buffer group,
// handed straight from the engine's decode stage to the per-stream
// queues with no intermediate buffering — and it NEVER blocks on a
// stream: per-stream buffering is bounded by granted credit, accept
// overflow refuses the open, and data for dead streams is discarded with
// its credit returned. That invariant is what makes one stalled stream
// invisible to its siblings.
func (s *Session) demuxLoop() {
	var dec wire.MuxDecoder
	for {
		chunk, err := s.conn.ReadChunk()
		if err != nil {
			s.fail(err)
			return
		}
		if err := dec.Feed(chunk, s.handleFrame); err != nil {
			s.fail(fmt.Errorf("adocmux: %w", err))
			return
		}
	}
}

// remoteID reports whether id belongs to the peer's namespace (streams
// the peer may open).
func (s *Session) remoteID(id uint32) bool {
	if s.client {
		return id%2 == 0 // server opens even streams
	}
	return id%2 == 1
}

func (s *Session) handleFrame(f wire.MuxFrame) error {
	switch f.Kind {
	case wire.MuxTrace:
		// The sender's trace context, placed at the head of a sampled
		// batch: adopt it on the connection so receive-side spans measured
		// before this frame decoded (receive, decompress) flush under the
		// sender's trace ID.
		s.conn.AdoptRecvTrace(adoc.TraceContext{ID: f.TraceID, Sampled: f.TraceSampled})

	case wire.MuxOpen:
		if !s.remoteID(f.StreamID) {
			return fmt.Errorf("adocmux: peer opened stream %d in our ID space", f.StreamID)
		}
		s.mu.Lock()
		if s.err != nil {
			// A concurrent failure already tore the table down; anything
			// registered now would never be failed. Drop the open.
			s.mu.Unlock()
			return nil
		}
		if _, dup := s.streams[f.StreamID]; dup {
			s.mu.Unlock()
			return fmt.Errorf("adocmux: peer reopened live stream %d", f.StreamID)
		}
		st := newStream(s, f.StreamID)
		st.origin = string(f.Payload)
		s.streams[f.StreamID] = st
		s.mu.Unlock()
		s.metrics.active.Inc()
		select {
		case s.accept <- st:
			s.metrics.accepted.Inc()
			s.events.Publish(adoc.ObsEvent{
				Type: adoc.EventStream, Conn: s.connID, Stream: f.StreamID, Action: "accept",
			})
			s.grantSurplusWindow(st)
		default:
			// Accept backlog full: refuse by closing our write half
			// immediately; the peer reads EOF. Data it has in flight hits
			// the dead-stream path below.
			s.metrics.acceptOverflows.Inc()
			s.events.Publish(adoc.ObsEvent{
				Type: adoc.EventStream, Conn: s.connID, Stream: f.StreamID, Action: "overflow",
			})
			s.forget(f.StreamID)
			var buf [wire.MuxHeaderLen]byte
			s.enqueueCtl(wire.AppendMuxClose(buf[:0], f.StreamID))
		}

	case wire.MuxData:
		st := s.lookup(f.StreamID)
		accepted := false
		if st != nil {
			var violation bool
			accepted, violation = st.deliverData(f.Payload)
			if accepted {
				if tc, ok := s.conn.RecvTraceContext(); ok && tc.Sampled {
					// Per-stream delivery attribution: the batch-level
					// deliver span covers the whole message; this one pins
					// the bytes to the stream they reached.
					tr := s.conn.FlowTracer()
					tr.Record(tc, f.StreamID, adoc.StageDeliver, tr.Now(), 0, len(f.Payload), 0)
				}
			}
			if violation {
				// The peer sent beyond the credit we granted. Honoring it
				// would let a buggy or hostile peer grow our buffers
				// without bound, so the overrun is session-fatal.
				return fmt.Errorf("adocmux: peer overran stream %d's receive window", f.StreamID)
			}
		}
		if !accepted {
			// Dead or read-closed stream: discard, but return the credit
			// so the peer's writer (which spent window for these bytes)
			// cannot wedge against a stream nobody will ever read.
			if len(f.Payload) > 0 {
				s.enqueueWindow(f.StreamID, uint32(len(f.Payload)))
			}
		}

	case wire.MuxClose:
		if st := s.lookup(f.StreamID); st != nil {
			st.deliverFIN()
		}

	case wire.MuxWindow:
		if st := s.lookup(f.StreamID); st != nil {
			st.deliverCredit(int64(f.Delta))
		}
	}
	return nil
}
