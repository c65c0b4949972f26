// Mux frames are the adocmux session sub-protocol. They do NOT appear on
// the socket directly: the session serializes them into a byte stream
// that travels as the payload of ordinary AdOC messages, so every mux
// frame rides through the adaptive compression pipeline and the 200 KB
// adaptation unit spans whatever streams happen to be interleaved.
//
//	muxFrame = kind(1) streamID(4) length(4) payload(length)
//
//	MuxOpen   open stream streamID        payload = [originAddr] (future fields ok)
//	MuxData   data for streamID           payload is the data
//	MuxClose  write-half close (FIN)      payload empty (future fields ok)
//	MuxWindow flow-control credit grant   payload = delta(4) [future fields]
//	MuxTrace  flow-trace context (id 0)   payload = traceID(8) flags(1) [future]
//
// All integers are big-endian. Stream ID 0 is reserved (never a valid
// stream), leaving room for session-scoped control frames later. The
// length is self-describing: a decoder skips the payload of frame kinds
// it does not know, so new kinds can be added without breaking peers that
// negotiated the mux capability earlier.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MuxKind discriminates mux frames.
type MuxKind uint8

// Mux frame kinds.
const (
	MuxOpen   MuxKind = 1
	MuxData   MuxKind = 2
	MuxClose  MuxKind = 3
	MuxWindow MuxKind = 4
	// MuxTrace is a session-scoped (stream ID 0) flow-trace context:
	// the 8-byte trace ID plus a flags byte for the batch it opens.
	// Only sent when both peers negotiated HandshakeFlagTrace; legacy
	// decoders skip it via the unknown-kind path.
	MuxTrace MuxKind = 5
	// Kind 6 carried dictionaries in earlier builds; it is skipped as
	// unknown and reserved: never reuse it.
)

func (k MuxKind) String() string {
	switch k {
	case MuxOpen:
		return "open"
	case MuxData:
		return "data"
	case MuxClose:
		return "close"
	case MuxWindow:
		return "window"
	case MuxTrace:
		return "trace"
	}
	return fmt.Sprintf("mux(%d)", uint8(k))
}

const (
	// MuxHeaderLen is the fixed mux frame header: kind + streamID +
	// length.
	MuxHeaderLen = 1 + 4 + 4
	// MaxMuxFrameLen bounds one mux frame payload; decoders reject larger
	// values to bound allocations. Sessions produce data frames far
	// smaller than this.
	MaxMuxFrameLen = 1 << 20
	// muxWindowPayloadLen is the payload this version writes for a
	// MuxWindow frame.
	muxWindowPayloadLen = 4
	// muxTracePayloadLen is the payload this version writes for a
	// MuxTrace frame: trace ID + flags byte.
	muxTracePayloadLen = 8 + 1
	// muxTraceFlagSampled marks the batch as sampled in the MuxTrace
	// flags byte.
	muxTraceFlagSampled = 1 << 0
	// MaxMuxOriginLen bounds the origin-address payload of a MuxOpen
	// frame; longer payloads are truncated by the encoder, never
	// rejected by the decoder (they are future-fields by contract).
	MaxMuxOriginLen = 255
)

// ErrMuxStreamZero reports a mux frame carrying the reserved stream ID 0.
var ErrMuxStreamZero = errors.New("wire: mux frame on reserved stream 0")

// MuxFrame is one decoded mux frame.
type MuxFrame struct {
	Kind     MuxKind
	StreamID uint32
	// Delta is the credit grant of a MuxWindow frame.
	Delta uint32
	// Payload is the data of a MuxData frame, or the origin-address
	// metadata of a MuxOpen frame (empty from legacy senders). It
	// aliases either the fed slice or an internal reassembly buffer and
	// is valid only during the emit callback; receivers that keep it
	// must copy.
	Payload []byte
	// TraceID and TraceSampled are the flow-trace context of a MuxTrace
	// frame.
	TraceID      uint64
	TraceSampled bool
}

func appendMuxHeader(dst []byte, kind MuxKind, id uint32, length int) []byte {
	dst = append(dst, byte(kind))
	dst = binary.BigEndian.AppendUint32(dst, id)
	return binary.BigEndian.AppendUint32(dst, uint32(length))
}

// AppendMuxOpen appends a stream-open frame.
func AppendMuxOpen(dst []byte, id uint32) []byte {
	return appendMuxHeader(dst, MuxOpen, id, 0)
}

// AppendMuxOpenOrigin appends a stream-open frame carrying the
// originating client address as metadata (for backend-affine balancing
// on the far gateway). Only valid when both peers negotiated
// HandshakeFlagTrace; legacy decoders ignore MuxOpen payloads by
// design, so the frame still opens the stream either way. Addresses
// longer than MaxMuxOriginLen are truncated.
func AppendMuxOpenOrigin(dst []byte, id uint32, origin string) []byte {
	if len(origin) > MaxMuxOriginLen {
		origin = origin[:MaxMuxOriginLen]
	}
	dst = appendMuxHeader(dst, MuxOpen, id, len(origin))
	return append(dst, origin...)
}

// AppendMuxTrace appends a session-scoped flow-trace context frame.
func AppendMuxTrace(dst []byte, traceID uint64, sampled bool) []byte {
	dst = appendMuxHeader(dst, MuxTrace, 0, muxTracePayloadLen)
	dst = binary.BigEndian.AppendUint64(dst, traceID)
	var flags byte
	if sampled {
		flags |= muxTraceFlagSampled
	}
	return append(dst, flags)
}

// AppendMuxData appends a data frame carrying p.
func AppendMuxData(dst []byte, id uint32, p []byte) []byte {
	dst = appendMuxHeader(dst, MuxData, id, len(p))
	return append(dst, p...)
}

// AppendMuxClose appends a write-half close (FIN) frame.
func AppendMuxClose(dst []byte, id uint32) []byte {
	return appendMuxHeader(dst, MuxClose, id, 0)
}

// AppendMuxWindow appends a flow-control frame granting delta more bytes
// of receive credit for the stream.
func AppendMuxWindow(dst []byte, id uint32, delta uint32) []byte {
	dst = appendMuxHeader(dst, MuxWindow, id, muxWindowPayloadLen)
	return binary.BigEndian.AppendUint32(dst, delta)
}

// MuxDecoder is an incremental mux frame decoder. The session's demux
// loop feeds it whatever spans the transport delivers — frames routinely
// straddle feed boundaries because the engine cuts the byte stream into
// adaptation buffers, not mux frames — and the decoder emits each
// complete frame exactly once. Decoding is chunking-invariant: the same
// byte stream produces the same frames and errors no matter how it is
// split across Feed calls (the fuzz target enforces this).
//
// The zero value is ready to use. A MuxDecoder must not be used after it
// has returned an error.
type MuxDecoder struct {
	hdr    [MuxHeaderLen]byte
	hdrLen int

	// Payload of the in-progress frame. When a whole frame arrives inside
	// one fed slice the payload aliases it instead (zero copy); buf is
	// only filled when a payload straddles feeds.
	need int // payload bytes still missing; valid once hdrLen == MuxHeaderLen
	buf  []byte
}

// Feed consumes p, invoking emit for every mux frame it completes. Frame
// payloads passed to emit are only valid during the call. A non-nil error
// from emit stops decoding and is returned as is.
func (d *MuxDecoder) Feed(p []byte, emit func(MuxFrame) error) error {
	for len(p) > 0 {
		// Accumulate the fixed header.
		if d.hdrLen < MuxHeaderLen {
			n := copy(d.hdr[d.hdrLen:], p)
			d.hdrLen += n
			p = p[n:]
			if d.hdrLen < MuxHeaderLen {
				return nil
			}
			length := binary.BigEndian.Uint32(d.hdr[5:9])
			if length > MaxMuxFrameLen {
				return fmt.Errorf("%w: mux frame %d bytes", ErrTooBig, length)
			}
			d.need = int(length)
			d.buf = d.buf[:0]
		}
		// Fast path: the whole payload is already in p.
		if len(d.buf) == 0 && len(p) >= d.need {
			payload := p[:d.need]
			p = p[d.need:]
			if err := d.finish(payload, emit); err != nil {
				return err
			}
			continue
		}
		// Slow path: buffer until the payload completes.
		take := min(d.need-len(d.buf), len(p))
		d.buf = append(d.buf, p[:take]...)
		p = p[take:]
		if len(d.buf) == d.need {
			if err := d.finish(d.buf, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish validates and emits the completed frame, then resets for the
// next header.
func (d *MuxDecoder) finish(payload []byte, emit func(MuxFrame) error) error {
	f := MuxFrame{
		Kind:     MuxKind(d.hdr[0]),
		StreamID: binary.BigEndian.Uint32(d.hdr[1:5]),
	}
	d.hdrLen = 0
	d.buf = d.buf[:0]
	switch f.Kind {
	case MuxOpen:
		// Payload is the optional origin-address metadata; anything a
		// sender of this version did not write is future-fields and
		// still ignored.
		f.Payload = payload
	case MuxClose:
		// Payload reserved for future fields; ignored by design.
	case MuxData:
		f.Payload = payload
	case MuxTrace:
		if len(payload) < muxTracePayloadLen {
			return fmt.Errorf("%w: trace frame payload %d bytes", ErrBadFrame, len(payload))
		}
		f.TraceID = binary.BigEndian.Uint64(payload[:8])
		f.TraceSampled = payload[8]&muxTraceFlagSampled != 0
		// Bytes beyond the flags belong to a future version; ignored.
		// MuxTrace is session-scoped: stream ID 0 is its only valid ID.
		if f.StreamID != 0 {
			return fmt.Errorf("%w: trace frame on stream %d", ErrBadFrame, f.StreamID)
		}
		return emit(f)
	case MuxWindow:
		if len(payload) < muxWindowPayloadLen {
			return fmt.Errorf("%w: window frame payload %d bytes", ErrBadFrame, len(payload))
		}
		f.Delta = binary.BigEndian.Uint32(payload[:4])
		// Bytes beyond the delta belong to a future version; ignored.
	default:
		// Unknown kind: skip it via the self-describing length so new
		// frame kinds can be introduced without a capability renegotiation.
		return nil
	}
	if f.StreamID == 0 {
		return fmt.Errorf("%w: %v frame", ErrMuxStreamZero, f.Kind)
	}
	return emit(f)
}
