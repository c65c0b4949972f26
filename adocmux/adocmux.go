// Package adocmux multiplexes many logical byte streams over one
// negotiated adocnet connection.
//
// The paper positions AdOC as middleware that accelerates data transfer
// for unmodified applications; adocmux supplies the missing consolidation
// half of that story. Without it every logical flow needs its own TCP
// connection, its own handshake, and its own cold adaptive controller.
// With it, one connection carries any number of concurrent streams, and —
// because stream frames are serialized into a single byte stream that
// rides through the connection's ordinary send path — all of them share
// one adaptive controller, one parallel compression pipeline, and one
// bandwidth history. The engine's 200 KB adaptation unit simply spans
// whatever streams happen to be interleaved inside it, so compression
// level decisions are made for the connection's aggregate traffic,
// exactly where the adaptation signal (the emission FIFO) lives.
//
// # Session model
//
// A Session is created on an adocnet connection whose handshake
// negotiated the mux capability (wire.HandshakeFlagMux; see
// adocnet.Negotiated.Mux). Both sides may open streams: the dialing side
// (Client) uses odd stream IDs, the accepting side (Server) even ones, so
// concurrent opens can never collide. OpenStream sends an open frame (wire.MuxOpen)
// and returns immediately; AcceptStream surfaces peer-opened streams. A
// Stream is an io.ReadWriteCloser with TCP-like half-close: CloseWrite
// sends a FIN (wire.MuxClose frame) after which the peer's reads drain and
// return io.EOF, while the other direction keeps flowing.
//
// # Flow control
//
// Each stream direction is governed by byte credit. A sender may have at
// most InitialWindow unacknowledged bytes in flight per stream; the
// receiver returns credit with window frames (wire.MuxWindow) as the application
// consumes them (granted in batches of half a window to amortize frame
// overhead). A stream whose consumer stalls therefore blocks its writer
// after InitialWindow bytes — and only that writer: the session's demux
// loop never blocks on a full stream (per-stream buffering is bounded by
// the credit the receiver itself granted), so sibling streams keep
// moving. This is the classic HTTP/2-style guarantee, implemented here
// below the compression layer so one slow reader cannot stall the shared
// adaptive pipeline.
//
// # Framing
//
// Mux frames (wire.MuxOpen/MuxData/MuxClose/MuxWindow) are not a wire
// protocol of their own: the session coalesces queued frames from all
// streams into batches and sends each batch as one ordinary AdOC message,
// so mux traffic is indistinguishable from any other adaptive-compression
// traffic on the wire — and a batch under the connection's small-message
// threshold keeps the latency of a plain write. Use TransportOptions for
// the connection an adocmux session will run on: it keeps that threshold
// low so bulk batches reach the adaptive pipeline.
package adocmux

import (
	"errors"
	"log/slog"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/wire"
)

// Session errors.
var (
	// ErrMuxNotNegotiated reports a connection whose handshake did not
	// establish the mux capability on both sides.
	ErrMuxNotNegotiated = errors.New("adocmux: peer did not negotiate the mux capability")
	// ErrSessionClosed is returned by operations on a closed session.
	ErrSessionClosed = errors.New("adocmux: session closed")
	// ErrStreamClosed is returned by operations on a closed stream.
	ErrStreamClosed = errors.New("adocmux: stream closed")
	// ErrStreamsExhausted is returned by OpenStream once the session has
	// used its entire 31-bit stream ID space; wrapping around would
	// collide with live streams (or emit the reserved ID 0) and kill the
	// session at the peer, so the exhaustion is reported explicitly —
	// open a fresh session to continue.
	ErrStreamsExhausted = errors.New("adocmux: stream IDs exhausted; open a new session")
)

// Defaults.
const (
	// InitialWindow is the per-stream, per-direction credit every stream
	// starts with. It is a protocol constant: both endpoints assume it, and
	// receivers that want a larger steady-state window grant the surplus
	// with an immediate window grant when the stream is created.
	InitialWindow = 256 * 1024
	// DefaultAcceptBacklog bounds peer-opened streams waiting in
	// AcceptStream. Opens beyond it are refused with an immediate FIN.
	DefaultAcceptBacklog = 128
	// DefaultMaxFrameData caps one data frame's payload. Small enough to
	// interleave streams fairly, large enough that the 9-byte frame header
	// is noise.
	DefaultMaxFrameData = 32 * 1024
	// DefaultMaxBatch caps the coalesced frame bytes in flight toward the
	// connection; data writers beyond it wait, applying backpressure.
	DefaultMaxBatch = 1 << 20
)

// Config tunes a session. The zero value selects every default.
type Config struct {
	// AcceptBacklog bounds streams the peer has opened that AcceptStream
	// has not yet claimed (default DefaultAcceptBacklog).
	AcceptBacklog int
	// Window is the per-stream receive window this endpoint maintains.
	// Values below InitialWindow are raised to it (the initial credit is
	// a protocol constant); larger values grant the surplus as soon as a
	// stream is created, for high-bandwidth-delay links.
	Window int
	// MaxFrameData caps one data frame's payload (default
	// DefaultMaxFrameData).
	MaxFrameData int
	// MaxBatch caps the bytes of queued frames before data writers block
	// (default DefaultMaxBatch).
	MaxBatch int
	// Metrics is the registry this session's stream accounting publishes
	// to; nil selects the process-wide adoc.DefaultMetrics(). Note the
	// underlying connection's engine metrics bind separately, through the
	// adocnet.Options the connection was dialed with.
	Metrics *adoc.MetricsRegistry
	// Logger receives structured events at the gateway decision points
	// (backend health transitions, drain progress). Nil means silent.
	// The underlying connection's own events (handshake, adapt
	// transitions) log through the adocnet.Options logger instead.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = DefaultAcceptBacklog
	}
	if c.Window < InitialWindow {
		c.Window = InitialWindow
	}
	if c.MaxFrameData <= 0 {
		c.MaxFrameData = DefaultMaxFrameData
	}
	// Frames beyond the wire decoder's hard limit would be rejected by
	// the peer as a protocol error, killing the whole session; a large
	// configured value means "as big as the protocol allows".
	if c.MaxFrameData > wire.MaxMuxFrameLen {
		c.MaxFrameData = wire.MaxMuxFrameLen
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// TransportOptions returns adocnet options tuned for carrying a mux
// session: the full adaptive configuration, with the small-message
// threshold lowered so coalesced frame batches reach the adaptive
// pipeline (instead of the raw small-message fast path sized for
// single-flow traffic). The fast-link bypass stays on: the engine
// measures the link once per connection, not per batch, so a tunnel over
// a fast link sends its batches raw on the writer's thread and one over a
// slow link keeps adapting. The knob is endpoint-local, so peers need not
// agree on it.
func TransportOptions() adocnet.Options {
	o := adocnet.Defaults()
	o.SmallThreshold = 8 * 1024
	return o
}
