package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"adoc/internal/codec"
)

func TestHandshakeRoundtrip(t *testing.T) {
	h := Handshake{
		MinVersion: 1, MaxVersion: 3,
		PacketSize: 4096, BufferSize: 100 * 1024,
		MinLevel: 2, MaxLevel: 9,
	}
	buf := AppendHandshake(nil, h)
	if len(buf) != HandshakeLen {
		t.Fatalf("encoded length = %d, want HandshakeLen = %d", len(buf), HandshakeLen)
	}
	got, err := NewReader(bytes.NewReader(buf)).ReadHandshake()
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, h)
	}
}

// TestHandshakeForwardCompatible checks that a handshake announcing a
// longer payload (a future version with extra fields) still parses: the
// known prefix is decoded, the tail skipped.
func TestHandshakeForwardCompatible(t *testing.T) {
	h := Handshake{MinVersion: 1, MaxVersion: 1, PacketSize: 8192, BufferSize: 200 * 1024, MaxLevel: 10}
	buf := AppendHandshake(nil, h)
	// Splice four future bytes into the payload and patch the length.
	buf = append(buf, 0xDE, 0xAD, 0xBE, 0xEF)
	binary.BigEndian.PutUint16(buf[MsgHeaderLen:], uint16(len(buf)-MsgHeaderLen-2))
	got, err := NewReader(bytes.NewReader(buf)).ReadHandshake()
	if err != nil {
		t.Fatalf("extended handshake rejected: %v", err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, h)
	}
}

// TestHandshakeFlagsRoundtrip checks the capability flags travel.
func TestHandshakeFlagsRoundtrip(t *testing.T) {
	h := Handshake{MinVersion: 1, MaxVersion: 1, PacketSize: 8192,
		BufferSize: 200 * 1024, MaxLevel: 10, Flags: HandshakeFlagMux | 0x8000}
	got, err := NewReader(bytes.NewReader(AppendHandshake(nil, h))).ReadHandshake()
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, h)
	}
}

// TestHandshakeLegacyPayload checks backward compatibility with peers
// that predate the flags word: their 12-byte payload still decodes, with
// Flags reading as zero (no optional capabilities) and the codec mask
// reading as the legacy fixed set (raw, LZF, DEFLATE).
func TestHandshakeLegacyPayload(t *testing.T) {
	h := Handshake{MinVersion: 1, MaxVersion: 2, PacketSize: 4096,
		BufferSize: 100 * 1024, MinLevel: 1, MaxLevel: 9,
		Flags: HandshakeFlagMux, CodecMask: codec.LegacyMask}
	buf := AppendHandshake(nil, h)
	// Rebuild the frame the way an old peer would: 12-byte payload, no
	// flags word, no codec mask.
	legacy := append([]byte(nil), buf[:MsgHeaderLen]...)
	legacy = binary.BigEndian.AppendUint16(legacy, 12)
	legacy = append(legacy, buf[MsgHeaderLen+2:MsgHeaderLen+2+12]...)
	got, err := NewReader(bytes.NewReader(legacy)).ReadHandshake()
	if err != nil {
		t.Fatalf("legacy handshake rejected: %v", err)
	}
	want := h
	want.Flags = 0
	want.CodecMask = codec.LegacyMask
	if got != want {
		t.Fatalf("legacy decode mismatch: got %+v, want %+v", got, want)
	}
}

// TestHandshakeFlagsEraPayload checks the intermediate generation: peers
// that send the flags word but predate the codec mask (14-byte payload).
// Flags decode as sent; the mask defaults to the legacy set.
func TestHandshakeFlagsEraPayload(t *testing.T) {
	h := Handshake{MinVersion: 1, MaxVersion: 1, PacketSize: 8192,
		BufferSize: 200 * 1024, MaxLevel: 10,
		Flags: HandshakeFlagMux, CodecMask: codec.LegacyMask}
	buf := AppendHandshake(nil, h)
	flagsEra := append([]byte(nil), buf[:MsgHeaderLen]...)
	flagsEra = binary.BigEndian.AppendUint16(flagsEra, 14)
	flagsEra = append(flagsEra, buf[MsgHeaderLen+2:MsgHeaderLen+2+14]...)
	got, err := NewReader(bytes.NewReader(flagsEra)).ReadHandshake()
	if err != nil {
		t.Fatalf("flags-era handshake rejected: %v", err)
	}
	want := h
	want.CodecMask = codec.LegacyMask
	if got != want {
		t.Fatalf("flags-era decode mismatch: got %+v, want %+v", got, want)
	}
}

// TestHandshakeCodecMaskRoundtrip checks a restricted codec set travels
// exactly, including sets narrower than the legacy default.
func TestHandshakeCodecMaskRoundtrip(t *testing.T) {
	h := Handshake{MinVersion: 1, MaxVersion: 1, PacketSize: 8192,
		BufferSize: 200 * 1024, MaxLevel: 10,
		CodecMask: codec.MaskRaw | codec.MaskLZF}
	got, err := NewReader(bytes.NewReader(AppendHandshake(nil, h))).ReadHandshake()
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch: got %+v, want %+v", got, h)
	}
}

// TestHandshakeRejectedByV1Reader documents the failure mode for peers
// that predate the handshake: the message-header decoder refuses kind 3
// loudly instead of misparsing the stream.
func TestHandshakeRejectedByV1Reader(t *testing.T) {
	buf := AppendHandshake(nil, Handshake{MinVersion: 1, MaxVersion: 1})
	_, err := NewReader(bytes.NewReader(buf)).ReadMsgHeader()
	if !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestReadHandshakeOnRegularMessage(t *testing.T) {
	msg := AppendSmall(nil, []byte("not a handshake"))
	_, err := NewReader(bytes.NewReader(msg)).ReadHandshake()
	if !errors.Is(err, ErrNotHandshake) {
		t.Fatalf("err = %v, want ErrNotHandshake", err)
	}
}

func TestReadHandshakeMalformed(t *testing.T) {
	good := AppendHandshake(nil, Handshake{MinVersion: 1, MaxVersion: 1})

	t.Run("truncated", func(t *testing.T) {
		_, err := NewReader(bytes.NewReader(good[:len(good)-3])).ReadHandshake()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x00
		if _, err := NewReader(bytes.NewReader(bad)).ReadHandshake(); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad envelope version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 99
		if _, err := NewReader(bytes.NewReader(bad)).ReadHandshake(); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("short payload", func(t *testing.T) {
		bad := append([]byte(nil), good[:MsgHeaderLen]...)
		bad = binary.BigEndian.AppendUint16(bad, 4)
		bad = append(bad, 1, 1, 0, 0)
		if _, err := NewReader(bytes.NewReader(bad)).ReadHandshake(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		bad := append([]byte(nil), good[:MsgHeaderLen]...)
		bad = binary.BigEndian.AppendUint16(bad, MaxHandshakeLen+1)
		if _, err := NewReader(bytes.NewReader(bad)).ReadHandshake(); !errors.Is(err, ErrTooBig) {
			t.Fatalf("err = %v, want ErrTooBig", err)
		}
	})
}

// TestFrameLenConstantsMatchEncoders pins the exported frame-size
// constants to what the encoders actually produce, so stats code derived
// from them cannot drift from the wire format.
func TestFrameLenConstantsMatchEncoders(t *testing.T) {
	if n := len(AppendGroupBegin(nil, codec.Level(3))); n != FrameGroupBeginLen {
		t.Errorf("groupBegin = %d bytes, constant says %d", n, FrameGroupBeginLen)
	}
	payload := []byte("0123456789")
	if n := len(AppendPacket(nil, payload)) - len(payload); n != FramePacketOverhead {
		t.Errorf("packet overhead = %d bytes, constant says %d", n, FramePacketOverhead)
	}
	if n := len(AppendGroupEnd(nil, 123, 456)); n != FrameGroupEndLen {
		t.Errorf("groupEnd = %d bytes, constant says %d", n, FrameGroupEndLen)
	}
	if n := len(AppendMsgEnd(nil)); n != FrameMsgEndLen {
		t.Errorf("msgEnd = %d bytes, constant says %d", n, FrameMsgEndLen)
	}
	if n := len(AppendSmall(nil, payload)) - len(payload); n != SmallOverhead {
		t.Errorf("small overhead = %d bytes, constant says %d", n, SmallOverhead)
	}
	if n := len(AppendStreamHeader(nil, 1)); n != StreamHeaderLen {
		t.Errorf("stream header = %d bytes, constant says %d", n, StreamHeaderLen)
	}
}
