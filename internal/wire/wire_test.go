package wire

import (
	"bytes"
	"hash/adler32"
	"io"
	"testing"
	"testing/quick"

	"adoc/internal/codec"
)

func TestSmallMessageRoundtrip(t *testing.T) {
	payload := []byte("hello adoc")
	msg := AppendSmall(nil, payload)
	r := NewReader(bytes.NewReader(msg))
	h, err := r.ReadMsgHeader()
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindSmall || h.RawLen != uint32(len(payload)) {
		t.Fatalf("header = %+v", h)
	}
	buf := make([]byte, len(payload))
	got, err := r.ReadSmallPayload(h, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestSmallZeroByteMessage(t *testing.T) {
	msg := AppendSmall(nil, nil)
	if len(msg) != MsgHeaderLen+4 {
		t.Fatalf("zero-byte small message is %d bytes, want %d", len(msg), MsgHeaderLen+4)
	}
	r := NewReader(bytes.NewReader(msg))
	h, err := r.ReadMsgHeader()
	if err != nil || h.RawLen != 0 {
		t.Fatalf("h=%+v err=%v", h, err)
	}
	got, err := r.ReadSmallPayload(h, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("payload=%v err=%v", got, err)
	}
}

func TestStreamRoundtrip(t *testing.T) {
	raw := []byte("the raw buffer contents of one adoc group")
	var msg []byte
	msg = AppendStreamHeader(msg, uint64(len(raw)))
	msg = AppendGroupBegin(msg, codec.LZF)
	msg = AppendPacket(msg, raw[:20])
	msg = AppendPacket(msg, raw[20:])
	msg = AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	msg = AppendMsgEnd(msg)

	r := NewReader(bytes.NewReader(msg))
	h, err := r.ReadMsgHeader()
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindStream || h.TotalRaw != uint64(len(raw)) {
		t.Fatalf("header = %+v", h)
	}
	f, err := r.ReadFrame()
	if err != nil || f.Mark != MarkGroupBegin {
		t.Fatalf("frame 1 = %+v, %v", f, err)
	}
	if f.Level != codec.LZF {
		t.Fatalf("groupBegin = %+v", f)
	}
	var got []byte
	for i := 0; i < 2; i++ {
		f, err = r.ReadFrame()
		if err != nil || f.Mark != MarkPacket {
			t.Fatalf("packet %d = %+v, %v", i, f, err)
		}
		got = append(got, f.Payload...)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("reassembled payload mismatch")
	}
	f, err = r.ReadFrame()
	if err != nil || f.Mark != MarkGroupEnd {
		t.Fatalf("groupEnd = %+v, %v", f, err)
	}
	if f.Checksum != adler32.Checksum(raw) || f.RawLen != len(raw) {
		t.Fatal("groupEnd rawLen/checksum mismatch")
	}
	f, err = r.ReadFrame()
	if err != nil || f.Mark != MarkMsgEnd {
		t.Fatalf("msgEnd = %+v, %v", f, err)
	}
}

func TestUnknownTotal(t *testing.T) {
	msg := AppendStreamHeader(nil, UnknownTotal)
	r := NewReader(bytes.NewReader(msg))
	h, err := r.ReadMsgHeader()
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalRaw != UnknownTotal {
		t.Fatalf("TotalRaw = %x", h.TotalRaw)
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xDE, 0xAD, 1, 1, 0, 0, 0, 0}))
	if _, err := r.ReadMsgHeader(); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	msg := AppendSmall(nil, []byte("x"))
	msg[2] = 99
	r := NewReader(bytes.NewReader(msg))
	if _, err := r.ReadMsgHeader(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBadKind(t *testing.T) {
	msg := AppendMsgHeader(nil, Kind(9))
	r := NewReader(bytes.NewReader(msg))
	if _, err := r.ReadMsgHeader(); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestTruncatedHeader(t *testing.T) {
	msg := AppendSmall(nil, []byte("payload"))
	for cut := 1; cut < len(msg); cut++ {
		r := NewReader(bytes.NewReader(msg[:cut]))
		h, err := r.ReadMsgHeader()
		if err != nil {
			continue // truncation detected in the header: fine
		}
		if _, err := r.ReadSmallPayload(h, make([]byte, h.RawLen)); err == nil {
			t.Fatalf("cut=%d: truncated message fully decoded", cut)
		}
	}
}

func TestTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	var msg []byte
	msg = AppendPacket(msg, []byte("abcdef"))
	r := NewReader(bytes.NewReader(msg[:3]))
	if _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	// An empty reader mid-stream is also truncation.
	r2 := NewReader(bytes.NewReader(nil))
	if _, err := r2.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("empty mid-stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCleanEOFOnMessageBoundary(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadMsgHeader(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF at message boundary", err)
	}
}

func TestBadFrameMarker(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{77}))
	if _, err := r.ReadFrame(); err == nil {
		t.Fatal("unknown marker accepted")
	}
}

func TestGroupBeginBadLevel(t *testing.T) {
	msg := []byte{MarkGroupBegin, 42}
	r := NewReader(bytes.NewReader(msg))
	if _, err := r.ReadFrame(); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestOversizeRejected(t *testing.T) {
	var msg []byte
	msg = append(msg, MarkPacket)
	msg = append(msg, 0xFF, 0xFF, 0xFF, 0xFF)
	r := NewReader(bytes.NewReader(msg))
	if _, err := r.ReadFrame(); err != ErrTooBig {
		t.Fatalf("oversize packet: err = %v, want ErrTooBig", err)
	}

	var g []byte
	g = append(g, MarkGroupEnd)
	g = append(g, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	r = NewReader(bytes.NewReader(g))
	if _, err := r.ReadFrame(); err != ErrTooBig {
		t.Fatalf("oversize group: err = %v, want ErrTooBig", err)
	}
}

func TestSmallPayloadShortBuffer(t *testing.T) {
	msg := AppendSmall(nil, []byte("0123456789"))
	r := NewReader(bytes.NewReader(msg))
	h, err := r.ReadMsgHeader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadSmallPayload(h, make([]byte, 4)); err != io.ErrShortBuffer {
		t.Fatalf("err = %v, want io.ErrShortBuffer", err)
	}
}

func TestReadSmallPayloadKindMismatch(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadSmallPayload(MsgHeader{Kind: KindStream}, nil); err != ErrBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestPacketPayloadReuse(t *testing.T) {
	// The payload buffer is reused between ReadFrame calls; a consumer
	// that copies sees both packets intact.
	var msg []byte
	msg = AppendPacket(msg, []byte("first"))
	msg = AppendPacket(msg, []byte("second!"))
	r := NewReader(bytes.NewReader(msg))
	f1, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	c1 := append([]byte(nil), f1.Payload...)
	f2, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != "first" || string(f2.Payload) != "second!" {
		t.Fatalf("payloads: %q, %q", c1, f2.Payload)
	}
}

func TestQuickStreamRoundtrip(t *testing.T) {
	// Property: any sequence of packets framed and decoded returns the
	// identical byte stream.
	f := func(chunks [][]byte) bool {
		var msg []byte
		var want []byte
		msg = AppendStreamHeader(msg, UnknownTotal)
		msg = AppendGroupBegin(msg, 0)
		for _, c := range chunks {
			msg = AppendPacket(msg, c)
			want = append(want, c...)
		}
		msg = AppendGroupEnd(msg, len(want), adler32.Checksum(want))
		msg = AppendMsgEnd(msg)

		r := NewReader(bytes.NewReader(msg))
		if _, err := r.ReadMsgHeader(); err != nil {
			return false
		}
		if f, err := r.ReadFrame(); err != nil || f.Mark != MarkGroupBegin {
			return false
		}
		var got []byte
		for i := 0; i < len(chunks); i++ {
			fr, err := r.ReadFrame()
			if err != nil || fr.Mark != MarkPacket {
				return false
			}
			got = append(got, fr.Payload...)
		}
		fr, err := r.ReadFrame()
		if err != nil || fr.Mark != MarkGroupEnd || fr.Checksum != adler32.Checksum(want) {
			return false
		}
		if end, err := r.ReadFrame(); err != nil || end.Mark != MarkMsgEnd {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameOverheadSmall(t *testing.T) {
	// Protocol overhead for a full 8 KB packet must stay below 0.1%,
	// keeping the "no degradation" property of the paper plausible.
	p := make([]byte, 8192)
	framed := AppendPacket(nil, p)
	if over := len(framed) - len(p); over > 8 {
		t.Fatalf("packet overhead = %d bytes", over)
	}
}

// TestAppendGroupFrames: AppendGroup writes exactly GroupLen bytes, and a
// buffered Reader decodes them back into the block's packets, whatever
// the block's size against the packet size.
func TestAppendGroupFrames(t *testing.T) {
	const packet = 100
	for _, n := range []int{0, 1, packet - 1, packet, packet + 1, 10 * packet} {
		block := bytes.Repeat([]byte{7}, n)
		msg := AppendGroup(nil, 3, block, packet, 2*n, 42)
		if len(msg) != GroupLen(n, packet) {
			t.Fatalf("%d-byte block: %d wire bytes, GroupLen %d", n, len(msg), GroupLen(n, packet))
		}
		r := NewReaderSize(bytes.NewReader(msg), 64)
		var got []byte
		for {
			f, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("%d-byte block: %v", n, err)
			}
			got = append(got, f.Payload...)
			if len(f.Payload) > packet {
				t.Fatalf("%d-byte block: packet of %d bytes", n, len(f.Payload))
			}
			if f.Mark == MarkGroupEnd {
				if f.RawLen != 2*n || f.Checksum != 42 || !bytes.Equal(got, block) {
					t.Fatalf("%d-byte block: group end %+v, %d payload bytes", n, f, len(got))
				}
				break
			}
		}
	}
}
