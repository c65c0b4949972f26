package adocnet

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"adoc"
	"adoc/internal/codec"
	"adoc/internal/wire"
)

// Capability numbers that builds with the dictionary codec advertised by
// default. Both are reserved: this build neither sends nor honours them.
const (
	olderDictFlag uint16     = 1 << 2
	olderDictMask codec.Mask = 1 << 3
)

// olderDictOffer is the handshake a default-configured build from before
// the dictionary codec's removal sends: mux, trace and the dictionary
// flag, and the dictionary codec in its mask.
var olderDictOffer = wire.Handshake{
	MinVersion: wire.Version, MaxVersion: wire.Version,
	PacketSize: 8192, BufferSize: 200 * 1024,
	MinLevel: 0, MaxLevel: 10,
	Flags:     wire.HandshakeFlagMux | wire.HandshakeFlagTrace | olderDictFlag,
	CodecMask: codec.LegacyMask | olderDictMask,
}

// olderOfferConn replaces the first handshake frame written through it
// with olderDictOffer; everything after the handshake passes through.
type olderOfferConn struct {
	net.Conn
	rewrote bool
}

func (c *olderOfferConn) Write(p []byte) (int, error) {
	if !c.rewrote && len(p) >= wire.MsgHeaderLen && wire.Kind(p[3]) == wire.KindHandshake {
		c.rewrote = true
		if _, err := c.Conn.Write(wire.AppendHandshake(nil, olderDictOffer)); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestOlderDictPeerInterop pins compatibility with builds that still
// carry the dictionary codec. This build's offer carries neither
// dictionary bit, so such a peer's "both sides advertise" rule switches
// the dictionary off; against that peer's offer this build negotiates
// mux and trace over raw+lzf+deflate, whichever side dials, and
// compressed messages cross byte-identically in both directions.
func TestOlderDictPeerInterop(t *testing.T) {
	ours, err := offer(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if ours.Flags&olderDictFlag != 0 || ours.CodecMask&olderDictMask != 0 {
		t.Fatalf("offer advertises a reserved dictionary bit: flags %#x, codecs %v", ours.Flags, ours.CodecMask)
	}
	for _, olderDials := range []bool{true, false} {
		name := "older peer accepts"
		if olderDials {
			name = "older peer dials"
		}
		t.Run(name, func(t *testing.T) {
			wrap := func(c net.Conn, older bool) net.Conn {
				if older {
					return &olderOfferConn{Conn: c}
				}
				return c
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
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
				c, err := Handshake(wrap(raw, !olderDials), Defaults())
				ch <- res{c, err}
			}()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			cli, cerr := Handshake(wrap(raw, olderDials), Defaults())
			srv := <-ch
			if cerr != nil {
				t.Fatalf("dialer handshake: %v", cerr)
			}
			if srv.err != nil {
				t.Fatalf("acceptor handshake: %v", srv.err)
			}
			defer cli.Close()
			defer srv.c.Close()

			for _, end := range []*Conn{cli, srv.c} {
				neg := end.Negotiated()
				if !strings.HasSuffix(neg.String(), " +mux +trace") {
					t.Errorf("negotiated %q, want +mux +trace", neg)
				}
			}

			data := payload(1 << 20)
			for _, dir := range [][2]*Conn{{cli, srv.c}, {srv.c, cli}} {
				from, to := dir[0], dir[1]
				done := make(chan error, 1)
				go func() {
					// Forced DEFLATE levels: the groups a dictionary would
					// have replaced are the ones that must cross intact.
					_, err := from.WriteMessageLevels(data, 2, adoc.MaxLevel)
					done <- err
				}()
				got := make([]byte, len(data))
				if _, err := io.ReadFull(to, got); err != nil {
					t.Fatalf("receive: %v", err)
				}
				if err := <-done; err != nil {
					t.Fatalf("send: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("payload corrupted crossing an older peer's handshake")
				}
			}
		})
	}
}
