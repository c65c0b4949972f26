package adoc

import (
	"io"

	"adoc/internal/core"
)

// Conn is an AdOC connection: it wraps a bidirectional byte stream and
// adds adaptive online compression in both directions. Conn implements
// io.ReadWriteCloser; Write compresses adaptively and Read transparently
// decompresses, so a Conn can be dropped into code written against plain
// sockets — exactly how the paper retrofits NetSolve by substituting its
// read/write calls.
//
// A Conn is safe for concurrent use. Writes are serialized with writes,
// reads with reads; a read and a write may run in parallel (full duplex).
//
// Read, ReadChunk and ReceiveMessage are three views of one incoming byte
// stream, served by one receive step that yields it a span at a time: one
// decoded buffer group, or one whole small-message payload. They may be
// mixed on a connection, and after Close all of them fail with ErrClosed.
type Conn struct {
	eng *core.Engine
	rw  io.ReadWriter
}

// NewConn wraps rw in an AdOC connection. Both endpoints of a link must
// speak AdOC (the wire format is self-describing but not plaintext).
func NewConn(rw io.ReadWriter, opts Options) (*Conn, error) {
	eng, err := core.New(rw, opts)
	if err != nil {
		return nil, err
	}
	return &Conn{eng: eng, rw: rw}, nil
}

// Read fills p with the next decompressed bytes of the incoming stream,
// blocking until at least one byte is available (read semantics; message
// boundaries are not preserved). Once it has a byte it only tops p up
// from what has already arrived; the rest of a span waits, buffered, for
// the next call.
func (c *Conn) Read(p []byte) (int, error) { return c.eng.Read(p) }

// ReadChunk returns the next span of the incoming byte stream without
// copying, delivered as the interleaved groups arrive off the wire; Read
// leftovers come first. The span is only valid until the next
// Read/ReadChunk/ReceiveMessage call on this connection; consumers that
// keep bytes must copy them out first. This is the delivery primitive for
// demultiplexers (adocmux) that fan the byte stream out to per-stream
// queues.
func (c *Conn) ReadChunk() ([]byte, error) { return c.eng.ReadChunk() }

// Write sends p as one adaptively compressed message and returns
// (len(p), nil) on success, satisfying io.Writer. Use WriteMessage to
// also learn the wire byte count.
//
// On failure the returned count honors the io.Writer contract: it is the
// number of p's bytes confirmed delivered to the peer (the payload of
// every group that fully reached the socket) rather than a hard-coded 0,
// so callers that resume after a transient error do not resend data the
// other side already has.
func (c *Conn) Write(p []byte) (int, error) {
	n, _, err := c.eng.WriteMessageFull(p)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// WriteMessage sends p as one message and returns the number of bytes
// that hit the wire (the slen output of adoc_write).
func (c *Conn) WriteMessage(p []byte) (sent int64, err error) {
	return c.eng.WriteMessage(p)
}

// WriteMessageLevels is WriteMessage with per-call level bounds.
func (c *Conn) WriteMessageLevels(p []byte, min, max Level) (sent int64, err error) {
	return c.eng.WriteMessageLevels(p, min, max)
}

// WriteMessageTC is WriteMessage carrying an explicit trace context: when
// tc.Sampled is set (and Options.FlowTracer is configured) the message's
// pipeline stages are recorded against tc's trace ID. A zero tc is exactly
// WriteMessage.
func (c *Conn) WriteMessageTC(p []byte, tc TraceContext) (sent int64, err error) {
	return c.eng.WriteMessageTC(p, tc)
}

// AdoptRecvTrace attributes the receive-side stages of the message
// currently being delivered to tc. Demultiplexers call this when they find
// a trace marker inside the decoded payload: spans recorded before
// adoption (receive, decompress) are buffered and flushed under tc's ID.
func (c *Conn) AdoptRecvTrace(tc TraceContext) { c.eng.AdoptRecvTrace(tc) }

// RecvTraceContext returns the trace context adopted (via AdoptRecvTrace)
// for the receive message currently being delivered, and whether one has
// been adopted — the query demultiplexers make to attribute per-stream
// delivery spans.
func (c *Conn) RecvTraceContext() (TraceContext, bool) { return c.eng.RecvTraceContext() }

// FlowTracer returns the tracer this connection records spans to (nil if
// none was configured).
func (c *Conn) FlowTracer() *FlowTracer { return c.eng.FlowTracer() }

// SendStream transmits size bytes from r as one message (size < 0 means
// until EOF). It returns the raw and wire byte counts.
func (c *Conn) SendStream(r io.Reader, size int64) (raw, sent int64, err error) {
	return c.eng.SendMessage(r, size)
}

// SendStreamLevels is SendStream with per-call level bounds.
func (c *Conn) SendStreamLevels(r io.Reader, size int64, min, max Level) (raw, sent int64, err error) {
	return c.eng.SendMessageLevels(r, size, min, max)
}

// ReceiveMessage consumes exactly one incoming message, writing its
// decompressed content to w span by span and returning the byte count; a
// zero-length message writes nothing and returns 0. It must be called on
// a message boundary (ErrMidMessage otherwise). On an error — the
// connection's or w's — the count is what reached w, and if the message
// had not ended its rest is left unread: every later receive on the
// connection returns ErrAbandoned, wrapping the error, until Close.
func (c *Conn) ReceiveMessage(w io.Writer) (int64, error) {
	return c.eng.ReceiveMessage(w)
}

// Close releases the connection's AdOC state and closes the underlying
// stream if it implements io.Closer.
func (c *Conn) Close() error { return c.eng.Close() }

// Stats returns a snapshot of connection activity, including the adapt
// controller's decision state (Stats.Adapt).
func (c *Conn) Stats() Stats { return c.eng.Stats() }

// Inspect returns the connection's entry in its metrics registry's
// live-inspection table (the one /debug/conns serves). Layers wrapping
// the connection use it to tag their role and negotiated state.
func (c *Conn) Inspect() *ConnHandle { return c.eng.Handle() }

// CounterStats is Stats without the Adapt snapshot; cheaper for callers
// that aggregate counters across many connections and discard the
// non-additive decision state.
func (c *Conn) CounterStats() Stats { return c.eng.CounterStats() }

// CompressionRatio returns rawSent/wireSent over the connection lifetime
// (1.0 means no gain; higher is better).
func (c *Conn) CompressionRatio() float64 { return c.eng.CompressionRatio() }

// Parallelism returns the connection's effective in-flight window after
// defaulting: how many adaptation buffers (or receive groups) it may have
// on the shared worker pool at once. It is not a worker count; 1 is the
// paper's sequential pipeline as the window-of-1 case.
func (c *Conn) Parallelism() int { return c.eng.Options().Parallelism }

// Underlying returns the wrapped stream.
func (c *Conn) Underlying() io.ReadWriter { return c.rw }
