// Package adocnet is the AdOC transport layer: net.Listener/net.Conn
// style Listen and Dial whose connections negotiate their AdOC parameters
// at connect time instead of trusting both endpoints to hand-roll
// matching Options.
//
// The paper deploys AdOC by substituting the read/write calls of existing
// middleware; this package adds the missing operational half of that
// story. Opening a connection performs a versioned handshake: each side
// sends one frame (magic, protocol version range, its effective packet
// and buffer sizes, its compression level bounds, its capability flags
// and its codec mask) and both sides deterministically agree on the
// intersection they can honor — the highest common protocol version, the
// smaller packet and buffer sizes, the overlap of the level ranges, and
// the capabilities (mux, trace) both advertise. The codec mask is not
// negotiated: every build offers the paper's fixed ladder (raw, LZF,
// DEFLATE) and requires it of its peer. Endpoints configured differently
// therefore converge on one consistent configuration, and incompatible
// peers (no common version, disjoint level ranges, a codec mask missing
// part of the ladder, or a peer that is not speaking AdOC at all) fail
// loudly with a typed error rather than silently corrupting the stream.
//
// The handshake is symmetric — both sides send first, then read — so the
// same code runs on the dialing and the accepting end, and middleware
// that upgrades an existing net.Conn (the NetSolve pattern) can call
// Handshake directly without caring which side it is on.
package adocnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"adoc"
	"adoc/internal/codec"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// MetricHandshakes is the registry family counting handshake attempts by
// outcome: "ok", "version_mismatch", "level_mismatch", "codec_mismatch",
// "bad_frame" (peer is not speaking AdOC, or sent a malformed offer), or
// "io_error" (the exchange itself failed — timeout, reset, config).
const MetricHandshakes = "adoc_handshake_total"

// countHandshake classifies err into an outcome label and bumps the
// handshake counter on the endpoint's registry.
func countHandshake(reg *obs.Registry, err error) {
	if reg == nil {
		reg = obs.Default()
	}
	outcome := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrVersionMismatch):
		outcome = "version_mismatch"
	case errors.Is(err, ErrLevelMismatch):
		outcome = "level_mismatch"
	case errors.Is(err, ErrCodecMismatch):
		outcome = "codec_mismatch"
	case errors.Is(err, wire.ErrNotHandshake), errors.Is(err, wire.ErrBadMagic):
		outcome = "bad_frame"
	default:
		outcome = "io_error"
	}
	reg.Counter(MetricHandshakes, "Handshake attempts by outcome.",
		obs.Label{Name: "outcome", Value: outcome}).Inc()
}

// Negotiation errors. Handshake failures wrap one of these (or a wire
// decoding error such as wire.ErrNotHandshake / wire.ErrBadMagic).
var (
	// ErrVersionMismatch reports that the peers share no protocol version.
	ErrVersionMismatch = errors.New("adocnet: no common protocol version")
	// ErrLevelMismatch reports disjoint compression level ranges (for
	// example one side forcing compression the other side forbids).
	ErrLevelMismatch = errors.New("adocnet: no common compression level range")
	// ErrCodecMismatch reports a peer whose codec mask lacks raw copy,
	// LZF or DEFLATE: it cannot decode every level of the ladder, which
	// every build offers in full. No build of this library sends such a
	// mask; only a foreign or broken peer does.
	ErrCodecMismatch = errors.New("adocnet: no common codec set")
)

// DefaultHandshakeTimeout bounds the handshake round-trip when Options
// does not say otherwise.
const DefaultHandshakeTimeout = 10 * time.Second

// Options configures one endpoint. The embedded adoc.Options carries the
// engine knobs; PacketSize, BufferSize, MinLevel and MaxLevel are offers,
// replaced by the negotiated values once the handshake completes. Zero
// sizes and thresholds resolve to the paper defaults, but the level
// bounds are offered exactly as given — the zero value's [0,0] offers
// compression OFF, the same semantics as adoc.NewConn. Start from
// Defaults() for the full adaptive range [0,10].
type Options struct {
	adoc.Options

	// HandshakeTimeout bounds the handshake exchange (applied through the
	// connection's deadline). Zero means DefaultHandshakeTimeout; negative
	// disables the deadline entirely. Note that a zero or positive value
	// makes the handshake set and then CLEAR the connection deadline, so
	// callers upgrading a conn that already carries a deadline of their
	// own (Handshake's NetSolve-style use) should pass a negative value
	// and keep managing the deadline themselves.
	HandshakeTimeout time.Duration
}

// Defaults returns the paper configuration with the full adaptive level
// range, the adocnet analogue of adoc.DefaultOptions.
func Defaults() Options {
	return Options{Options: adoc.DefaultOptions()}
}

// Negotiated is the configuration both endpoints agreed on. Both sides of
// a connection compute identical values.
type Negotiated struct {
	// Version is the protocol version the connection runs.
	Version byte
	// PacketSize and BufferSize are the smaller of the two offers.
	PacketSize, BufferSize int
	// MinLevel and MaxLevel are the intersection of the offered ranges.
	MinLevel, MaxLevel adoc.Level
	// Mux reports that both endpoints advertised the stream-multiplexing
	// capability, so an adocmux.Session may be started on this
	// connection. Peers that predate the capability never advertise it,
	// and the connection degrades to plain message traffic — old peers
	// keep working.
	Mux bool
	// Trace reports that both endpoints advertised the mux
	// session-metadata capability: flow-trace contexts (MuxTrace) and
	// stream origin addresses may cross this connection. With it off,
	// tracing stays local to each endpoint and no new bytes hit the
	// wire.
	Trace bool
}

func (n Negotiated) String() string {
	s := fmt.Sprintf("v%d packet=%d buffer=%d levels=[%d,%d]",
		n.Version, n.PacketSize, n.BufferSize, n.MinLevel, n.MaxLevel)
	if n.Mux {
		s += " +mux"
	}
	if n.Trace {
		s += " +trace"
	}
	return s
}

// offer builds the handshake frame this endpoint sends: its effective
// (default-resolved) sizes and bounds, the protocol versions this library
// implements, and the fixed capability flags and codec mask every build
// advertises. The resolution is adoc.Options.Effective — the very
// rules the engine runs — so the offer can never drift from the
// configuration a plain adoc endpoint would actually use.
func offer(o Options) (wire.Handshake, error) {
	eff, err := o.Options.Effective()
	if err != nil {
		return wire.Handshake{}, fmt.Errorf("adocnet: %w", err)
	}
	// Never offer sizes the wire decoder is hard-limited to reject; a
	// "successful" negotiation above these would fail on the first large
	// transfer instead of at connect time. Since the negotiated value is
	// the minimum of both offers, clamping our own offer also bounds the
	// agreement against an immodest peer.
	eff.PacketSize = min(eff.PacketSize, wire.MaxPacketLen)
	eff.BufferSize = min(eff.BufferSize, wire.MaxGroupRaw)
	if eff.BufferSize < eff.PacketSize {
		eff.BufferSize = eff.PacketSize
	}
	return wire.Handshake{
		MinVersion: wire.Version,
		MaxVersion: wire.Version,
		PacketSize: uint32(eff.PacketSize),
		BufferSize: uint32(eff.BufferSize),
		MinLevel:   eff.MinLevel,
		MaxLevel:   eff.MaxLevel,
		Flags:      wire.HandshakeFlagMux | wire.HandshakeFlagTrace,
		CodecMask:  codec.LegacyMask,
	}, nil
}

// negotiate intersects the two offers. It is symmetric in its arguments,
// so both endpoints compute the same result from the same pair of frames.
func negotiate(local, remote wire.Handshake) (Negotiated, error) {
	ver := min(local.MaxVersion, remote.MaxVersion)
	if ver < local.MinVersion || ver < remote.MinVersion {
		return Negotiated{}, fmt.Errorf("%w: local [%d,%d], remote [%d,%d]",
			ErrVersionMismatch, local.MinVersion, local.MaxVersion, remote.MinVersion, remote.MaxVersion)
	}
	if ver != wire.Version {
		// The stream codec stamps wire.Version on every message header and
		// rejects anything else; until it can actually speak multiple
		// versions, an agreement on a different one is a promise the
		// connection cannot keep. Unreachable while offer() advertises
		// exactly [wire.Version, wire.Version]; this guards the day the
		// advertised range widens without the codec catching up.
		return Negotiated{}, fmt.Errorf("%w: negotiated v%d but this codec speaks only v%d",
			ErrVersionMismatch, ver, wire.Version)
	}
	n := Negotiated{
		Version:    ver,
		PacketSize: int(min(local.PacketSize, remote.PacketSize)),
		BufferSize: int(min(local.BufferSize, remote.BufferSize)),
		MinLevel:   max(local.MinLevel, remote.MinLevel),
		MaxLevel:   min(local.MaxLevel, remote.MaxLevel),
		// Capabilities are in effect only when both sides advertise them;
		// a legacy peer's absent flags word reads as "none".
		Mux:   local.Flags&remote.Flags&wire.HandshakeFlagMux != 0,
		Trace: local.Flags&remote.Flags&wire.HandshakeFlagTrace != 0,
	}
	if n.PacketSize <= 0 || n.BufferSize <= 0 {
		return Negotiated{}, fmt.Errorf("adocnet: peer offered zero-sized packets or buffers")
	}
	if n.BufferSize < n.PacketSize {
		n.BufferSize = n.PacketSize
	}
	if !n.MinLevel.Valid() || !n.MaxLevel.Valid() || n.MinLevel > n.MaxLevel {
		return Negotiated{}, fmt.Errorf("%w: local [%d,%d], remote [%d,%d]",
			ErrLevelMismatch, local.MinLevel, local.MaxLevel, remote.MinLevel, remote.MaxLevel)
	}
	// Both ends run the whole ladder: raw copy backs level 0, the entropy
	// bypass and the no-gain fallback, and either side may pick any level
	// in the agreed range. Legacy frames decode to the full fixed set, and
	// bits beyond it (an older build's reserved dictionary codec) are
	// ignored.
	if local.CodecMask&remote.CodecMask&codec.LegacyMask != codec.LegacyMask {
		return Negotiated{}, fmt.Errorf("%w: local %#04x, remote %#04x, need %#04x",
			ErrCodecMismatch, local.CodecMask, remote.CodecMask, codec.LegacyMask)
	}
	return n, nil
}

// Conn is a negotiated AdOC connection: the embedded adoc.Conn carries
// the adaptive Read/Write/Send/Receive surface, configured with the
// values both endpoints agreed on.
type Conn struct {
	*adoc.Conn
	raw net.Conn
	neg Negotiated
}

// Negotiated returns the parameters agreed during the handshake.
func (c *Conn) Negotiated() Negotiated { return c.neg }

// clampLevels intersects per-call level bounds with the negotiated range,
// so a call cannot quietly violate what the peer agreed to honor.
func (c *Conn) clampLevels(min_, max_ adoc.Level) (adoc.Level, adoc.Level, error) {
	lo := max(min_, c.neg.MinLevel)
	hi := min(max_, c.neg.MaxLevel)
	if !min_.Valid() || !max_.Valid() || min_ > max_ {
		return 0, 0, fmt.Errorf("adocnet: invalid level bounds [%d,%d]", min_, max_)
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("%w: requested [%d,%d], negotiated [%d,%d]",
			ErrLevelMismatch, min_, max_, c.neg.MinLevel, c.neg.MaxLevel)
	}
	return lo, hi, nil
}

// WriteMessageLevels is adoc.Conn.WriteMessageLevels with the requested
// bounds clamped to the negotiated range: the intersection is used when
// one exists, and a request wholly outside the agreement fails with
// ErrLevelMismatch instead of shipping levels the peer forbade.
func (c *Conn) WriteMessageLevels(p []byte, min_, max_ adoc.Level) (int64, error) {
	lo, hi, err := c.clampLevels(min_, max_)
	if err != nil {
		return 0, err
	}
	return c.Conn.WriteMessageLevels(p, lo, hi)
}

// SendStreamLevels is adoc.Conn.SendStreamLevels with the same negotiated
// clamping as WriteMessageLevels.
func (c *Conn) SendStreamLevels(r io.Reader, size int64, min_, max_ adoc.Level) (raw, sent int64, err error) {
	lo, hi, err := c.clampLevels(min_, max_)
	if err != nil {
		return 0, 0, err
	}
	return c.Conn.SendStreamLevels(r, size, lo, hi)
}

// NetConn returns the underlying network connection.
func (c *Conn) NetConn() net.Conn { return c.raw }

// LocalAddr returns the local network address.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr returns the peer's network address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// Handshake upgrades an existing connection to a negotiated AdOC
// connection — the entry point for middleware that owns its own dialing
// and accepting (the paper's NetSolve substitution). It is symmetric:
// both endpoints call the same function. On error the connection is NOT
// closed; the caller still owns it.
//
// Unless opts.HandshakeTimeout is negative, the handshake sets the
// connection deadline and clears it when done — replacing any deadline
// the caller had in place (see Options.HandshakeTimeout).
func Handshake(conn net.Conn, opts Options) (c *Conn, err error) {
	// Every attempt lands in the outcome counter, successes included, so
	// an operator can alert on the failure ratio rather than a raw count.
	defer func() {
		countHandshake(opts.Metrics, err)
		if err != nil {
			adoc.Events(opts.Metrics).Publish(adoc.ObsEvent{
				Type: adoc.EventHandshake, Action: "fail",
				Addr: conn.RemoteAddr().String(), Detail: err.Error(),
			})
		} else {
			adoc.Events(opts.Metrics).Publish(adoc.ObsEvent{
				Type: adoc.EventHandshake, Action: "ok", Conn: c.Inspect().ID(),
				Addr: conn.RemoteAddr().String(), Detail: c.neg.String(),
			})
		}
		if l := opts.Logger; l != nil {
			if err != nil {
				l.Warn("adoc handshake failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			} else {
				l.Info("adoc handshake",
					"remote", conn.RemoteAddr().String(), "negotiated", c.neg.String())
			}
		}
	}()
	local, err := offer(opts)
	if err != nil {
		return nil, err
	}

	timeout := opts.HandshakeTimeout
	if timeout == 0 {
		timeout = DefaultHandshakeTimeout
	}
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err == nil {
			defer conn.SetDeadline(time.Time{})
		}
	}

	// Both sides write first, then read: the frame is far smaller than any
	// socket buffer, so the concurrent writes cannot deadlock, and no
	// client/server asymmetry is needed.
	if _, err := conn.Write(wire.AppendHandshake(make([]byte, 0, wire.HandshakeLen), local)); err != nil {
		return nil, fmt.Errorf("adocnet: sending handshake: %w", err)
	}
	remote, err := wire.NewReader(conn).ReadHandshake()
	if err != nil {
		return nil, fmt.Errorf("adocnet: reading peer handshake: %w", err)
	}
	neg, err := negotiate(local, remote)
	if err != nil {
		return nil, err
	}

	// Thread the agreed values into the engine, keeping the caller's
	// local-only knobs (thresholds, parallelism, trace, clock).
	eng := opts.Options
	eng.PacketSize = neg.PacketSize
	eng.BufferSize = neg.BufferSize
	eng.MinLevel = neg.MinLevel
	eng.MaxLevel = neg.MaxLevel
	ac, err := adoc.NewConn(conn, eng)
	if err != nil {
		return nil, err
	}
	// Enrich the engine's inspection handle with what only this layer
	// knows: the negotiated agreement, including capabilities (mux,
	// trace) the engine itself never sees.
	h := ac.Inspect()
	h.SetKind("adocnet")
	h.SetConfig(adoc.ConnConfig{
		Version:     int(neg.Version),
		PacketSize:  neg.PacketSize,
		BufferSize:  neg.BufferSize,
		LevelBounds: [2]int{int(neg.MinLevel), int(neg.MaxLevel)},
		Mux:         neg.Mux,
		Trace:       neg.Trace,
	})
	return &Conn{Conn: ac, raw: conn, neg: neg}, nil
}
