package adocnet

import (
	"bytes"
	"errors"
	"testing"

	"adoc/internal/codec"
	"adoc/internal/wire"
)

// legacyFrame returns handshake frame as a build from before the flags
// word sends it: the original 12-byte payload, no flags and no codec mask.
func legacyFrame(frame []byte) []byte {
	b := append([]byte(nil), frame[:wire.MsgHeaderLen+2+12]...)
	b[wire.MsgHeaderLen], b[wire.MsgHeaderLen+1] = 0, 12 // payloadLen, big-endian
	return b
}

func decodeOffer(t testing.TB, frame []byte) wire.Handshake {
	t.Helper()
	h, err := wire.NewReader(bytes.NewReader(frame)).ReadHandshake()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestNegotiateTable is the legacy-interop table: this build's offer
// against every kind of peer offer, in both argument orders. Mux and
// trace are on only when both offers carry their flags, a mask missing
// raw, LZF or DEFLATE fails with ErrCodecMismatch, bits this build does
// not know are ignored, and both orders agree.
func TestNegotiateTable(t *testing.T) {
	ours, err := offer(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	const both = wire.HandshakeFlagMux | wire.HandshakeFlagTrace
	peer := func(flags uint16, mask codec.Mask) wire.Handshake {
		h := ours
		h.Flags, h.CodecMask = flags, mask
		return h
	}
	cases := []struct {
		name       string
		remote     wire.Handshake
		mux, trace bool
		err        error
	}{
		{"this build", ours, true, true, nil},
		{"flagless legacy payload", decodeOffer(t, legacyFrame(wire.AppendHandshake(nil, ours))), false, false, nil},
		{"older dictionary build", peer(both|1<<2, codec.LegacyMask|1<<3), true, true, nil},
		{"no mux flag", peer(wire.HandshakeFlagTrace, codec.LegacyMask), false, true, nil},
		{"no trace flag", peer(wire.HandshakeFlagMux, codec.LegacyMask), true, false, nil},
		{"mask without raw", peer(both, codec.MaskLZF|codec.MaskDeflate), false, false, ErrCodecMismatch},
		{"mask without lzf", peer(both, codec.MaskRaw|codec.MaskDeflate), false, false, ErrCodecMismatch},
		{"mask without deflate", peer(both, codec.MaskRaw|codec.MaskLZF), false, false, ErrCodecMismatch},
		{"unknown future bits", peer(0xfff0|both, 0xfff0|codec.LegacyMask), true, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := negotiate(ours, tc.remote)
			m, merr := negotiate(tc.remote, ours)
			if !errors.Is(err, tc.err) || !errors.Is(merr, tc.err) {
				t.Fatalf("errors %v / %v, want %v", err, merr, tc.err)
			}
			if n != m {
				t.Fatalf("orders disagree: %v against %v", n, m)
			}
			if n.Mux != tc.mux || n.Trace != tc.trace {
				t.Fatalf("mux %v trace %v, want %v %v", n.Mux, n.Trace, tc.mux, tc.trace)
			}
		})
	}
}

// FuzzNegotiate feeds arbitrary handshake bytes through ReadHandshake and
// negotiates them against this build's offer. Negotiation never panics,
// and an agreement never exceeds the local offer, only enables a
// capability both sides advertise, and is the same in either argument
// order.
func FuzzNegotiate(f *testing.F) {
	ours, err := offer(Defaults())
	if err != nil {
		f.Fatal(err)
	}
	older := ours
	older.Flags |= 1 << 2
	older.CodecMask |= 1 << 3
	hole := ours
	hole.MinLevel, hole.CodecMask = 1, codec.MaskRaw|codec.MaskDeflate
	for _, h := range []wire.Handshake{ours, older, hole} {
		f.Add(wire.AppendHandshake(nil, h))
	}
	f.Add(legacyFrame(wire.AppendHandshake(nil, ours)))
	f.Fuzz(func(t *testing.T, frame []byte) {
		remote, err := wire.NewReader(bytes.NewReader(frame)).ReadHandshake()
		if err != nil {
			return
		}
		n, err := negotiate(ours, remote)
		m, merr := negotiate(remote, ours)
		if n != m || (err == nil) != (merr == nil) {
			t.Fatalf("orders disagree: %v / %v against %v / %v", n, err, m, merr)
		}
		if err != nil {
			return
		}
		if n.PacketSize <= 0 || n.PacketSize > int(ours.PacketSize) ||
			n.BufferSize <= 0 || n.BufferSize > int(ours.BufferSize) {
			t.Fatalf("sizes %d/%d outside the local offer %d/%d",
				n.PacketSize, n.BufferSize, ours.PacketSize, ours.BufferSize)
		}
		if n.MinLevel < ours.MinLevel || n.MinLevel > n.MaxLevel || n.MaxLevel > ours.MaxLevel {
			t.Fatalf("levels [%d,%d] outside the local range [%d,%d]",
				n.MinLevel, n.MaxLevel, ours.MinLevel, ours.MaxLevel)
		}
		common := ours.Flags & remote.Flags
		if n.Mux != (common&wire.HandshakeFlagMux != 0) || n.Trace != (common&wire.HandshakeFlagTrace != 0) {
			t.Fatalf("mux %v trace %v from flags %#x and %#x", n.Mux, n.Trace, ours.Flags, remote.Flags)
		}
	})
}
