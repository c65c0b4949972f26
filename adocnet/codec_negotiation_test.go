package adocnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"adoc/internal/codec"
	"adoc/internal/testutil"
	"adoc/internal/wire"
)

// TestCodecMaskNegotiation checks the codec mask check end to end: every
// build offers the full raw/LZF/DEFLATE ladder, so two builds agree and
// move data, while a peer whose mask lacks any codec fails with
// ErrCodecMismatch on both ends. Each case clears the named codec bits
// from both handshake frames crossing one end's connection.
func TestCodecMaskNegotiation(t *testing.T) {
	cases := []struct {
		name               string
		clearCli, clearSrv codec.Mask
	}{
		{"both full", 0, 0},
		{"server lzf only", 0, codec.MaskDeflate},
		{"client raw only", codec.MaskLZF | codec.MaskDeflate, 0},
		{"deflate without lzf", codec.MaskLZF, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrap := func(bits codec.Mask) func(net.Conn) net.Conn {
				return func(c net.Conn) net.Conn { return testutil.ClearHandshakeBits(c, 0, bits) }
			}
			cli, srv, cerr, serr := handshakeVia(t, Defaults(), Defaults(), wrap(tc.clearCli), wrap(tc.clearSrv))
			if tc.clearCli|tc.clearSrv != 0 {
				if !errors.Is(cerr, ErrCodecMismatch) || !errors.Is(serr, ErrCodecMismatch) {
					t.Fatalf("errors client %v, server %v, want ErrCodecMismatch on both", cerr, serr)
				}
				return
			}
			if cerr != nil || serr != nil {
				t.Fatalf("handshake: client %v, server %v", cerr, serr)
			}
			if neg := cli.Negotiated(); neg != srv.Negotiated() || neg.MinLevel != 0 || neg.MaxLevel != 10 {
				t.Fatalf("negotiated client %v, server %v, want levels [0,10] on both", neg, srv.Negotiated())
			}
			data := payload(1 << 20)
			done := make(chan error, 1)
			go func() {
				_, err := cli.WriteMessage(data)
				done <- err
			}()
			got := make([]byte, len(data))
			if _, err := io.ReadFull(srv, got); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

// TestCodecMismatchForeignPeer exercises the negotiate-time codec guard
// against offers our own builds never produce (a foreign or buggy
// implementation): level bounds that require codecs missing from the
// advertised mask, a mask without raw copy at all, and a mask with a hole
// at LZF under a forced minimum of 1.
func TestCodecMismatchForeignPeer(t *testing.T) {
	cases := []struct {
		name string
		h    wire.Handshake
	}{
		{"forced levels beyond mask", wire.Handshake{
			MinVersion: wire.Version, MaxVersion: wire.Version,
			PacketSize: 8192, BufferSize: 200 * 1024,
			MinLevel: 5, MaxLevel: 10,
			CodecMask: codec.MaskRaw | codec.MaskLZF,
		}},
		{"no raw copy", wire.Handshake{
			MinVersion: wire.Version, MaxVersion: wire.Version,
			PacketSize: 8192, BufferSize: 200 * 1024,
			MinLevel: 0, MaxLevel: 10,
			CodecMask: codec.MaskLZF | codec.MaskDeflate,
		}},
		{"mask without lzf", wire.Handshake{
			MinVersion: wire.Version, MaxVersion: wire.Version,
			PacketSize: 8192, BufferSize: 200 * 1024,
			MinLevel: 1, MaxLevel: 10,
			CodecMask: codec.MaskRaw | codec.MaskDeflate,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				defer raw.Close()
				raw.Write(wire.AppendHandshake(nil, tc.h))
				// Drain the client's frame so its write cannot block.
				io.Copy(io.Discard, raw)
			}()
			_, err = Dial("tcp", ln.Addr().String(), Defaults())
			if !errors.Is(err, ErrCodecMismatch) {
				t.Fatalf("err = %v, want ErrCodecMismatch", err)
			}
		})
	}
}

// flaglessConn simulates a peer built before the handshake carried the
// flags word and the codec mask: it truncates the outgoing handshake
// frame to the original 12-byte payload. Everything after the handshake
// passes through untouched.
type flaglessConn struct {
	net.Conn
	rewrote bool
}

func (c *flaglessConn) Write(p []byte) (int, error) {
	if !c.rewrote && len(p) >= wire.MsgHeaderLen+2 && wire.Kind(p[3]) == wire.KindHandshake {
		c.rewrote = true
		if _, err := c.Conn.Write(legacyFrame(p)); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestLegacyFlaglessPeerTransfer is the backward-compatibility acceptance
// scenario: a peer whose handshake payload is the original 12-byte form —
// no flags, no codec mask — still negotiates (mux off, legacy codec set)
// and moves 10 MB byte-identically. The codec mask is strictly backward
// compatible: absent means "the fixed raw/LZF/DEFLATE set", never "none".
func TestLegacyFlaglessPeerTransfer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The legacy endpoint: flagless frame on the wire, and a negotiation
	// that sees what that frame conveys (no mux, no trace, fixed codec
	// set) from both sides, exactly like a build that predates both
	// fields.
	legacy := func(c net.Conn) net.Conn {
		return testutil.ClearHandshakeBits(&flaglessConn{Conn: c}, wire.HandshakeFlagMux|wire.HandshakeFlagTrace, 0)
	}

	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		c, err := Handshake(legacy(raw), Defaults())
		ch <- res{c, err}
	}()

	cli, err := Dial("tcp", ln.Addr().String(), Defaults())
	if err != nil {
		t.Fatalf("dial against legacy peer: %v", err)
	}
	defer cli.Close()
	srv := <-ch
	if srv.err != nil {
		t.Fatalf("legacy peer handshake: %v", srv.err)
	}
	defer srv.c.Close()

	if neg := cli.Negotiated(); neg != srv.c.Negotiated() {
		t.Fatalf("endpoints disagree: %v vs %v", neg, srv.c.Negotiated())
	}
	neg := cli.Negotiated()
	if neg.Mux {
		t.Errorf("negotiated mux with a flagless peer: %v", neg)
	}
	if neg.MinLevel != 0 || neg.MaxLevel != 10 {
		t.Errorf("negotiated levels [%d,%d], want [0,10]", neg.MinLevel, neg.MaxLevel)
	}

	data := payload(10 << 20)
	done := make(chan error, 1)
	go func() {
		_, err := cli.WriteMessage(data)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(srv.c, got); err != nil {
		t.Fatalf("receive: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted crossing a legacy handshake")
	}
}
