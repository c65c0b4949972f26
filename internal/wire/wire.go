// Package wire defines the AdOC stream format. The paper does not publish
// a byte-level protocol, so this package documents ours:
//
// Every adoc_write / adoc_send_file call produces one *message*:
//
//	message        = msgHeader (smallBody | streamBody)
//	msgHeader      = magic(2) version(1) kind(1)
//	smallBody      = rawLen(4) payload            kind = Small, < 512 KB
//	streamBody     = totalRaw(8) frame* msgEnd    kind = Stream
//
// A stream is a sequence of *buffer groups*; each group is one AdOC buffer
// (≤ 200 KB of user data) compressed as a single self-contained block at
// one level, cut into packets of at most 8 KB for the emission FIFO:
//
//	groupBegin     = marker(1)=1 level(1)
//	packet         = marker(1)=2 compLen(4) payload
//	groupEnd       = marker(1)=3 rawLen(4) adler32OfRaw(4)
//	msgEnd         = marker(1)=4
//
// All integers are big-endian. A group at level 0 carries raw payload; any
// other level carries one LZF block or one DEFLATE stream whose
// decompressed size is exactly rawLen. The raw length travels in groupEnd,
// not groupBegin, because the sender may abort compression mid-buffer when
// the incompressible-data guard fires (paper §5) — the group's true raw
// size is only known once it has been fully emitted. Packets within a
// group are just a transport-level segmentation of the group's byte
// stream — the unit the FIFO queue counts and the controller's δ observes.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adoc/internal/codec"
)

// Protocol constants.
const (
	Magic   = 0xAD0C
	Version = 1

	// Frame markers.
	MarkGroupBegin = 1
	MarkPacket     = 2
	MarkGroupEnd   = 3
	MarkMsgEnd     = 4
	// Marker 5 opened dictionary-compressed groups in earlier builds; it
	// decodes as ErrBadFrame and is reserved: never reuse it.

	// MsgHeaderLen is the fixed message header size.
	MsgHeaderLen = 4

	// Exact frame sizes, the single source of truth for wire-byte
	// accounting on both ends. Stats code must derive overheads from
	// these, never from literal byte counts, so a protocol change (like
	// the handshake frame) cannot silently skew the counters.
	//
	// FrameGroupBeginLen is a groupBegin frame: marker + level.
	FrameGroupBeginLen = 1 + 1
	// FramePacketOverhead is a packet frame minus its payload: marker +
	// compLen.
	FramePacketOverhead = 1 + 4
	// FrameGroupEndLen is a groupEnd frame: marker + rawLen + checksum.
	FrameGroupEndLen = 1 + 4 + 4
	// FrameMsgEndLen is the stream terminator: marker only.
	FrameMsgEndLen = 1
	// SmallOverhead is a small message minus its payload: msgHeader +
	// rawLen.
	SmallOverhead = MsgHeaderLen + 4
	// StreamHeaderLen is a stream message header: msgHeader + totalRaw.
	StreamHeaderLen = MsgHeaderLen + 8

	// UnknownTotal is the totalRaw value for streams of unknown length
	// (files read until EOF).
	UnknownTotal = ^uint64(0)

	// MaxGroupRaw bounds the raw size of one buffer group; decoders
	// reject larger values to bound allocations. The engine produces
	// groups of at most its buffer size (default 200 KB).
	MaxGroupRaw = 16 << 20
	// MaxGroupBlock bounds the compressed block of one group: the largest
	// block a MaxGroupRaw group can legitimately compress to (BlockBound of
	// it). Decoders reject groups whose packets carry more.
	MaxGroupBlock = MaxGroupRaw + MaxGroupRaw>>blockSlackShift + blockSlack
	// MaxPacketLen bounds one packet payload; the engine produces 8 KB.
	MaxPacketLen = 1 << 20

	// The slack BlockBound allows over the raw size. A group ships at its
	// codec's level only when the block shrinks, except a DEFLATE stream
	// cut short by the incompressible-data guard: its stored blocks and
	// sync flushes add about 11 bytes per 32 KB flush interval, far below
	// 1/64 of the raw size plus a fixed kilobyte.
	blockSlackShift = 6
	blockSlack      = 1024
)

// BlockBound is the largest compressed block a group of raw bytes can
// legitimately carry, at any level.
func BlockBound(raw int) int { return raw + raw>>blockSlackShift + blockSlack }

// Kind discriminates the two message bodies.
type Kind uint8

// Message kinds.
const (
	KindSmall     Kind = 1 // single raw chunk, no pipeline
	KindStream    Kind = 2 // buffer groups, adaptive pipeline
	KindHandshake Kind = 3 // connect-time option negotiation (adocnet)
)

// Protocol errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic (not an AdOC stream)")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrBadFrame   = errors.New("wire: malformed frame")
	ErrTooBig     = errors.New("wire: frame exceeds size limit")
	ErrChecksum   = errors.New("wire: group checksum mismatch")
)

// MsgHeader is the decoded fixed message header plus the body prefix.
type MsgHeader struct {
	Kind Kind
	// RawLen is the payload size for KindSmall messages.
	RawLen uint32
	// TotalRaw is the announced stream size for KindStream messages
	// (UnknownTotal when the sender did not know it).
	TotalRaw uint64
}

// AppendMsgHeader appends the fixed 4-byte header.
func AppendMsgHeader(dst []byte, kind Kind) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(kind))
	return dst
}

// AppendSmall appends a complete small message (header + length + payload).
// Callers hand the result to a single Write so that small messages cost one
// system call, keeping AdOC's latency equal to plain write (paper §5
// "Small messages").
func AppendSmall(dst, payload []byte) []byte {
	dst = AppendMsgHeader(dst, KindSmall)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// AppendStreamHeader appends the header of a stream message announcing
// totalRaw bytes (UnknownTotal if not known in advance).
func AppendStreamHeader(dst []byte, totalRaw uint64) []byte {
	dst = AppendMsgHeader(dst, KindStream)
	return binary.BigEndian.AppendUint64(dst, totalRaw)
}

// AppendGroupBegin appends a groupBegin frame announcing the level of the
// next buffer group.
func AppendGroupBegin(dst []byte, level codec.Level) []byte {
	return append(dst, MarkGroupBegin, byte(level))
}

// AppendPacket appends a packet frame carrying payload.
func AppendPacket(dst, payload []byte) []byte {
	dst = append(dst, MarkPacket)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// AppendGroupEnd appends a groupEnd frame carrying the raw (uncompressed)
// size of the group and the Adler-32 checksum of its raw data.
func AppendGroupEnd(dst []byte, rawLen int, sum uint32) []byte {
	dst = append(dst, MarkGroupEnd)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rawLen))
	return binary.BigEndian.AppendUint32(dst, sum)
}

// AppendMsgEnd appends the stream terminator.
func AppendMsgEnd(dst []byte) []byte { return append(dst, MarkMsgEnd) }

// AppendGroup appends one complete buffer group: groupBegin, block cut
// into packets of at most packetSize bytes, and groupEnd carrying rawLen
// and the checksum of the raw data. An empty block has no packet.
func AppendGroup(dst []byte, level codec.Level, block []byte, packetSize, rawLen int, sum uint32) []byte {
	dst = AppendGroupBegin(dst, level)
	for off := 0; off < len(block); off += packetSize {
		dst = AppendPacket(dst, block[off:off+min(packetSize, len(block)-off)])
	}
	return AppendGroupEnd(dst, rawLen, sum)
}

// GroupLen is the wire size of a group whose block is blockLen bytes, cut
// into packets of at most packetSize bytes.
func GroupLen(blockLen, packetSize int) int {
	packets := (blockLen + packetSize - 1) / packetSize
	return FrameGroupBeginLen + packets*FramePacketOverhead + blockLen + FrameGroupEndLen
}

// Frame is one decoded stream frame.
type Frame struct {
	Mark byte
	// GroupBegin field.
	Level codec.Level
	// Packet payload (valid until the next Reader call).
	Payload []byte
	// GroupEnd fields.
	RawLen   int
	Checksum uint32
}

// Len is the frame's size on the wire.
func (f Frame) Len() int {
	switch f.Mark {
	case MarkGroupBegin:
		return FrameGroupBeginLen
	case MarkPacket:
		return FramePacketOverhead + len(f.Payload)
	case MarkGroupEnd:
		return FrameGroupEndLen
	}
	return FrameMsgEndLen
}

// Reader decodes AdOC messages from an io.Reader.
//
// A Reader from NewReader reads exactly the bytes of the frames it
// returns, so whoever reads r next (the engine, after a handshake) finds
// the stream where the frame ended. A Reader from NewReaderSize reads
// ahead through a buffer of its own: one read system call then brings in
// several frame headers and payloads instead of one per header field. It
// consumes bytes beyond the frames it has returned, which is safe only
// when it owns the connection: all traffic on an AdOC descriptor is
// AdOC-framed, as in the C library, and the engine reads it through one
// Reader. Read-ahead does not delay ping-pong traffic: a buffer refill is
// one read that returns as soon as any bytes are available, never
// waiting for the buffer to fill, and the rest of a payload that the
// buffer does not hold is read straight into its destination when it is
// at least as large as the buffer. A packet payload that fits the buffer
// is returned in place in it.
type Reader struct {
	r       io.Reader
	scratch [16]byte
	packet  []byte // reusable packet payload buffer
}

// NewReader returns a frame decoder reading from r with no read-ahead.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// NewReaderSize returns a frame decoder that owns r and reads ahead
// through a buffer of size bytes.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// ReadMsgHeader reads and validates a message header.
func (d *Reader) ReadMsgHeader() (MsgHeader, error) {
	var h MsgHeader
	b := d.scratch[:MsgHeaderLen]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return h, err // io.EOF here means "no more messages", pass through
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != Version {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	h.Kind = Kind(b[3])
	switch h.Kind {
	case KindSmall:
		if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
			return h, unexpected(err)
		}
		h.RawLen = binary.BigEndian.Uint32(d.scratch[:4])
		if h.RawLen > MaxGroupRaw {
			return h, ErrTooBig
		}
	case KindStream:
		if _, err := io.ReadFull(d.r, d.scratch[:8]); err != nil {
			return h, unexpected(err)
		}
		h.TotalRaw = binary.BigEndian.Uint64(d.scratch[:8])
	default:
		return h, fmt.Errorf("%w: %d", ErrBadKind, b[3])
	}
	return h, nil
}

// ReadSmallPayload reads the payload of a KindSmall message into dst, which
// must be at least h.RawLen long; it returns the filled prefix.
func (d *Reader) ReadSmallPayload(h MsgHeader, dst []byte) ([]byte, error) {
	if h.Kind != KindSmall {
		return nil, ErrBadKind
	}
	if uint32(len(dst)) < h.RawLen {
		return nil, io.ErrShortBuffer
	}
	if _, err := io.ReadFull(d.r, dst[:h.RawLen]); err != nil {
		return nil, unexpected(err)
	}
	return dst[:h.RawLen], nil
}

// ReadFrame reads the next frame of a stream message. The Payload field of
// packet frames aliases an internal buffer (the read-ahead buffer, or a
// reusable packet buffer) that the next Reader call may overwrite;
// callers that keep it must copy.
func (d *Reader) ReadFrame() (Frame, error) {
	var f Frame
	if _, err := io.ReadFull(d.r, d.scratch[:1]); err != nil {
		return f, unexpected(err)
	}
	f.Mark = d.scratch[0]
	switch f.Mark {
	case MarkGroupBegin:
		if _, err := io.ReadFull(d.r, d.scratch[:1]); err != nil {
			return f, unexpected(err)
		}
		f.Level = codec.Level(d.scratch[0])
		if !f.Level.Valid() {
			return f, fmt.Errorf("%w: level %d", ErrBadFrame, d.scratch[0])
		}
	case MarkPacket:
		if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
			return f, unexpected(err)
		}
		n := binary.BigEndian.Uint32(d.scratch[:4])
		if n > MaxPacketLen {
			return f, ErrTooBig
		}
		p, err := d.payload(int(n))
		if err != nil {
			return f, unexpected(err)
		}
		f.Payload = p
	case MarkGroupEnd:
		if _, err := io.ReadFull(d.r, d.scratch[:8]); err != nil {
			return f, unexpected(err)
		}
		f.RawLen = int(binary.BigEndian.Uint32(d.scratch[:4]))
		if f.RawLen > MaxGroupRaw {
			return f, ErrTooBig
		}
		f.Checksum = binary.BigEndian.Uint32(d.scratch[4:8])
	case MarkMsgEnd:
		// no body
	default:
		return f, fmt.Errorf("%w: marker %d", ErrBadFrame, f.Mark)
	}
	return f, nil
}

// payload reads the next n bytes of a packet. A payload the read-ahead
// buffer can hold is returned in place there, so the consumer's copy is
// its only one; any other is read into the reusable packet buffer.
func (d *Reader) payload(n int) ([]byte, error) {
	if br, ok := d.r.(*bufio.Reader); ok && n <= br.Size() {
		p, err := br.Peek(n)
		if err != nil {
			return nil, err
		}
		br.Discard(n) // cannot fail: the n bytes are buffered
		return p, nil
	}
	if cap(d.packet) < n {
		d.packet = make([]byte, n)
	}
	p := d.packet[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Handshake is the connect-time negotiation frame exchanged by adocnet
// before any message flows:
//
//	handshake = magic(2) version(1) kind(1)=3 payloadLen(2) payload
//	payload   = minVer(1) maxVer(1) packetSize(4) bufferSize(4)
//	            minLevel(1) maxLevel(1) [flags(2)] [codecMask(2)]
//	            [future fields]
//
// The payload length is self-describing: a decoder reads exactly
// payloadLen bytes and ignores fields beyond the ones it knows, so future
// versions can append fields without breaking older peers. The flags word
// was appended exactly that way: peers that predate it send 12-byte
// payloads, which decode with Flags == 0 (no optional capabilities). The
// codec mask followed the same route: a payload too short to carry it
// decodes as codec.LegacyMask — the fixed raw/LZF/DEFLATE ladder every
// pre-mask peer speaks — so masks are strictly backward compatible.
// A pre-handshake (v1) peer that receives this frame fails loudly —
// ReadMsgHeader rejects kind 3 with ErrBadKind — instead of silently
// misparsing the stream.
type Handshake struct {
	// MinVersion and MaxVersion bound the stream protocol versions the
	// speaker can use; the connection runs at the highest version inside
	// both ranges.
	MinVersion, MaxVersion byte
	// PacketSize and BufferSize are the speaker's effective sizes; the
	// connection uses the minimum of both sides.
	PacketSize, BufferSize uint32
	// MinLevel and MaxLevel bound the speaker's compression levels; the
	// connection uses the intersection of both ranges.
	MinLevel, MaxLevel codec.Level
	// Flags advertises optional capabilities (HandshakeFlag*); a
	// capability is in effect only when both sides advertise it. This
	// build always sends mux and trace. Absent on legacy peers, which is
	// equivalent to "none".
	Flags uint16
	// CodecMask lists the codecs the speaker can run, one bit per
	// codec.ID. It is a fixed offer, not a negotiated set: this build
	// always sends codec.LegacyMask, and each side checks that the
	// other's mask holds the whole ladder (bits beyond it are ignored).
	// Absent on legacy peers, which decodes as codec.LegacyMask (the
	// fixed codec ladder every pre-mask build speaks) — never as "none",
	// which would break negotiation with every old peer.
	CodecMask codec.Mask
}

// Handshake capability flags.
const (
	// HandshakeFlagMux announces that the speaker can run the adocmux
	// stream-multiplexing session protocol on this connection.
	HandshakeFlagMux uint16 = 1 << 0
	// HandshakeFlagTrace announces that the speaker understands mux
	// session metadata: MuxTrace frames carrying a flow-trace context
	// and origin-address payloads on MuxOpen. Senders emit neither
	// unless both sides advertise the flag, so flagless legacy peers
	// see byte-identical traffic.
	HandshakeFlagTrace uint16 = 1 << 1
	// Bit 2 (1 << 2) announced dictionary compression in earlier builds;
	// it is ignored on receipt and reserved: never reuse it.
)

const (
	// HandshakeEnvelopeVersion is the version byte of the handshake
	// frame's own header. It is pinned at 1 forever, independent of the
	// stream protocol Version: the whole point of carrying a version
	// *range* in the payload is that peers of different stream versions
	// can still parse each other's hello and negotiate (or refuse
	// loudly); stamping the envelope with the sender's stream version
	// would make every future bump unreadable to older peers before
	// negotiation could happen. Frame evolution happens by appending
	// payload fields under the self-describing length instead.
	HandshakeEnvelopeVersion = 1
	// handshakeBasePayloadLen is the mandatory payload prefix every
	// version has written since the frame was introduced; decoders reject
	// anything shorter.
	handshakeBasePayloadLen = 1 + 1 + 4 + 4 + 1 + 1
	// handshakeFlagsPayloadLen is the payload length of peers that carry
	// the flags word but predate the codec mask.
	handshakeFlagsPayloadLen = handshakeBasePayloadLen + 2
	// handshakePayloadLen is the payload this version writes: the base
	// fields plus the capability flags word plus the codec mask.
	handshakePayloadLen = handshakeFlagsPayloadLen + 2
	// MaxHandshakeLen bounds the announced payload length so a corrupt or
	// hostile peer cannot force a large allocation.
	MaxHandshakeLen = 4096
	// HandshakeLen is the total size of the handshake frame this version
	// writes, for wire accounting.
	HandshakeLen = MsgHeaderLen + 2 + handshakePayloadLen
)

// ErrNotHandshake reports that the peer spoke a regular AdOC message (or
// something else entirely) where a handshake frame was required.
var ErrNotHandshake = errors.New("wire: peer did not send a handshake frame")

// AppendHandshake appends a complete handshake frame. The header carries
// HandshakeEnvelopeVersion, not Version — see that constant.
func AppendHandshake(dst []byte, h Handshake) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, HandshakeEnvelopeVersion, byte(KindHandshake))
	dst = binary.BigEndian.AppendUint16(dst, handshakePayloadLen)
	dst = append(dst, h.MinVersion, h.MaxVersion)
	dst = binary.BigEndian.AppendUint32(dst, h.PacketSize)
	dst = binary.BigEndian.AppendUint32(dst, h.BufferSize)
	dst = append(dst, byte(h.MinLevel), byte(h.MaxLevel))
	dst = binary.BigEndian.AppendUint16(dst, h.Flags)
	return binary.BigEndian.AppendUint16(dst, uint16(h.CodecMask))
}

// ReadHandshake reads and validates one handshake frame. It must be the
// first read on a connection; any other frame kind yields ErrNotHandshake
// (the peer predates the handshake or is not speaking AdOC at all).
func (d *Reader) ReadHandshake() (Handshake, error) {
	var h Handshake
	b := d.scratch[:MsgHeaderLen+2]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return h, unexpected(err)
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != HandshakeEnvelopeVersion {
		return h, fmt.Errorf("%w: handshake envelope %d", ErrBadVersion, b[2])
	}
	if Kind(b[3]) != KindHandshake {
		return h, fmt.Errorf("%w: got kind %d", ErrNotHandshake, b[3])
	}
	n := binary.BigEndian.Uint16(b[4:6])
	if n > MaxHandshakeLen {
		return h, ErrTooBig
	}
	if n < handshakeBasePayloadLen {
		return h, fmt.Errorf("%w: handshake payload %d bytes", ErrBadFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return h, unexpected(err)
	}
	h.MinVersion = payload[0]
	h.MaxVersion = payload[1]
	h.PacketSize = binary.BigEndian.Uint32(payload[2:6])
	h.BufferSize = binary.BigEndian.Uint32(payload[6:10])
	h.MinLevel = codec.Level(payload[10])
	h.MaxLevel = codec.Level(payload[11])
	if n >= handshakeFlagsPayloadLen {
		h.Flags = binary.BigEndian.Uint16(payload[12:14])
	}
	// The codec mask defaults to the legacy fixed set, not to zero: a
	// peer too old to send a mask can still run raw, LZF and DEFLATE.
	h.CodecMask = codec.LegacyMask
	if n >= handshakeFlagsPayloadLen+2 {
		h.CodecMask = codec.Mask(binary.BigEndian.Uint16(payload[14:16]))
	}
	// Bytes beyond the known fields belong to a future version; ignored
	// by design.
	return h, nil
}

// unexpected converts a bare io.EOF in the middle of a structure into
// io.ErrUnexpectedEOF so callers can distinguish truncation from a clean
// end of message sequence.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
