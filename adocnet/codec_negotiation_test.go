package adocnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"adoc"
	"adoc/internal/wire"
)

// TestCodecMaskNegotiation checks the codec capability set intersects like
// the other handshake fields, and that the agreed level range is clamped
// to what the intersection can actually serve.
func TestCodecMaskNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		client, server adoc.CodecMask
		wantCodecs     adoc.CodecMask
		wantMax        adoc.Level
	}{
		{"both full", 0, 0, adoc.LegacyCodecMask, 10},
		{"server lzf only", 0, adoc.MaskRaw | adoc.MaskLZF, adoc.MaskRaw | adoc.MaskLZF, 1},
		{"client raw only", adoc.MaskRaw, 0, adoc.MaskRaw, 0},
		{"deflate without lzf", adoc.MaskRaw | adoc.MaskDeflate, 0, adoc.MaskRaw | adoc.MaskDeflate, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := Defaults(), Defaults()
			client.Codecs = tc.client
			server.Codecs = tc.server
			cli, srv := pair(t, client, server)
			neg := cli.Negotiated()
			if neg != srv.Negotiated() {
				t.Fatalf("endpoints disagree: %v vs %v", neg, srv.Negotiated())
			}
			if neg.Codecs != tc.wantCodecs {
				t.Errorf("negotiated codecs %v, want %v", neg.Codecs, tc.wantCodecs)
			}
			if neg.MaxLevel != tc.wantMax {
				t.Errorf("negotiated MaxLevel %d, want %d (codecs %v)", neg.MaxLevel, tc.wantMax, neg.Codecs)
			}
			// The agreed configuration moves data regardless of how narrow
			// the codec set is.
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

// TestCodecMaskClampsOwnOffer: an endpoint whose codec set cannot serve
// its configured level bounds never offers them — the offer resolves
// through the same sanitation the engine runs, so the mismatch surfaces
// as a plain level negotiation against honest bounds.
func TestCodecMaskClampsOwnOffer(t *testing.T) {
	forced := Defaults()
	forced.MinLevel = 5 // demands DEFLATE
	forced.MaxLevel = 10
	rawOnly := Defaults()
	rawOnly.Codecs = adoc.MaskRaw // can only offer [0,0]

	ln, err := Listen("tcp", "127.0.0.1:0", rawOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	_, err = Dial("tcp", ln.Addr().String(), forced)
	if !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("err = %v, want ErrLevelMismatch", err)
	}
}

// TestCodecMismatchForeignPeer exercises the negotiate-time codec guard
// against offers our own builds never produce (a foreign or buggy
// implementation): level bounds that require codecs missing from the
// advertised mask, and a mask without raw copy at all.
func TestCodecMismatchForeignPeer(t *testing.T) {
	cases := []struct {
		name string
		h    wire.Handshake
	}{
		{"forced levels beyond mask", wire.Handshake{
			MinVersion: wire.Version, MaxVersion: wire.Version,
			PacketSize: 8192, BufferSize: 200 * 1024,
			MinLevel: 5, MaxLevel: 10,
			CodecMask: adoc.MaskRaw | adoc.MaskLZF,
		}},
		{"no raw copy", wire.Handshake{
			MinVersion: wire.Version, MaxVersion: wire.Version,
			PacketSize: 8192, BufferSize: 200 * 1024,
			MinLevel: 0, MaxLevel: 10,
			CodecMask: adoc.MaskLZF | adoc.MaskDeflate,
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

// TestForeignMinOnMaskHoleResolvesUp: a foreign peer forcing min level 1
// while advertising a mask without LZF must not make either side emit LZF
// blocks — the negotiated minimum resolves up to the lowest level the
// intersection can actually serve.
func TestForeignMinOnMaskHoleResolvesUp(t *testing.T) {
	h := wire.Handshake{
		MinVersion: wire.Version, MaxVersion: wire.Version,
		PacketSize: 8192, BufferSize: 200 * 1024,
		MinLevel: 1, MaxLevel: 10,
		CodecMask: adoc.MaskRaw | adoc.MaskDeflate,
	}
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
		raw.Write(wire.AppendHandshake(nil, h))
		io.Copy(io.Discard, raw)
	}()
	conn, err := Dial("tcp", ln.Addr().String(), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	neg := conn.Negotiated()
	if neg.Codecs != adoc.MaskRaw|adoc.MaskDeflate {
		t.Fatalf("negotiated codecs %v", neg.Codecs)
	}
	if neg.MinLevel != 2 {
		t.Fatalf("negotiated MinLevel = %d, want 2 (forced min 1 over the lzf hole)", neg.MinLevel)
	}
	if neg.MaxLevel != 10 {
		t.Fatalf("negotiated MaxLevel = %d, want 10", neg.MaxLevel)
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
		legacy := append([]byte(nil), p[:wire.MsgHeaderLen]...)
		legacy = append(legacy, 0, 12) // payloadLen = 12, big-endian
		legacy = append(legacy, p[wire.MsgHeaderLen+2:wire.MsgHeaderLen+2+12]...)
		if _, err := c.Conn.Write(legacy); err != nil {
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

	// The legacy endpoint: flagless frame on the wire, and options whose
	// semantics match what that frame conveys (no mux, fixed codec set),
	// exactly like a build that predates both fields.
	legacyOpts := Defaults()
	legacyOpts.DisableMux = true
	legacyOpts.DisableTrace = true
	legacyOpts.Codecs = adoc.LegacyCodecMask

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
		c, err := Handshake(&flaglessConn{Conn: raw}, legacyOpts)
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
	if neg.Codecs != adoc.LegacyCodecMask {
		t.Errorf("negotiated codecs %v, want legacy set %v", neg.Codecs, adoc.LegacyCodecMask)
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
