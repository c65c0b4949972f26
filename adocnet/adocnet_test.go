package adocnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"adoc"
	"adoc/internal/testutil"
	"adoc/internal/wire"
)

// payload returns n bytes that compress but not trivially: repeated text
// salted with deterministic pseudo-random runs.
func payload(n int) []byte {
	const line = "adaptive online compression negotiates its configuration at connect time\n"
	b := []byte(strings.Repeat(line, n/len(line)+1))[:n]
	rng := rand.New(rand.NewSource(42))
	for i := 0; i+4096 <= len(b); i += 64 * 1024 {
		rng.Read(b[i : i+4096])
	}
	return b
}

// pair dials a loopback connection between two differently-configured
// endpoints and returns (client, server).
func pair(t *testing.T, client, server Options) (*Conn, *Conn) {
	t.Helper()
	ln, err := Listen("tcp", "127.0.0.1:0", server)
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
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cli, cerr := Dial("tcp", ln.Addr().String(), client)
	srv := <-ch
	if cerr != nil {
		t.Fatalf("dial: %v", cerr)
	}
	if srv.err != nil {
		t.Fatalf("accept: %v", srv.err)
	}
	t.Cleanup(func() { cli.Close(); srv.c.Close() })
	return cli, srv.c
}

// handshakeVia runs both handshakes over a loopback connection whose raw
// ends first pass through their wrappers (nil for none) — how a test puts
// an older or foreign peer on either end. It returns each end's result;
// connections that come up are closed at cleanup.
func handshakeVia(t *testing.T, client, server Options, wrapCli, wrapSrv func(net.Conn) net.Conn) (cli, srv *Conn, cerr, serr error) {
	t.Helper()
	wrap := func(c net.Conn, w func(net.Conn) net.Conn) net.Conn {
		if w == nil {
			return c
		}
		return w(c)
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
		c, err := Handshake(wrap(raw, wrapSrv), server)
		if err != nil {
			raw.Close()
		}
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if cli, cerr = Handshake(wrap(raw, wrapCli), client); cerr != nil {
		raw.Close()
	}
	r := <-ch
	for _, c := range []*Conn{cli, r.c} {
		if c != nil {
			t.Cleanup(func() { c.Close() })
		}
	}
	return cli, r.c, cerr, r.err
}

func TestNegotiationIntersection(t *testing.T) {
	client := Defaults()
	client.PacketSize = 4096
	client.BufferSize = 64 * 1024
	client.MinLevel = 0
	client.MaxLevel = 10
	server := Defaults()
	server.PacketSize = 8192
	server.BufferSize = 200 * 1024
	server.MinLevel = 2
	server.MaxLevel = 8

	cli, srv := pair(t, client, server)
	want := Negotiated{Version: wire.Version, PacketSize: 4096, BufferSize: 64 * 1024,
		MinLevel: 2, MaxLevel: 8, Mux: true, Trace: true}
	if cli.Negotiated() != want {
		t.Errorf("client negotiated %v, want %v", cli.Negotiated(), want)
	}
	if srv.Negotiated() != cli.Negotiated() {
		t.Errorf("endpoints disagree: server %v, client %v", srv.Negotiated(), cli.Negotiated())
	}
}

// TestMuxCapabilityNegotiation checks the session-upgrade bit: mux is on
// only when BOTH endpoints advertise it, so a peer that predates the
// capability degrades the connection to plain message traffic instead of
// breaking it.
func TestMuxCapabilityNegotiation(t *testing.T) {
	cases := []struct {
		name                 string
		clientOff, serverOff bool
		want                 bool
	}{
		{"both advertise", false, false, true},
		{"client legacy", true, false, false},
		{"server legacy", false, true, false},
		{"both legacy", true, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy := func(c net.Conn) net.Conn { return testutil.ClearHandshakeBits(c, wire.HandshakeFlagMux, 0) }
			var wrapCli, wrapSrv func(net.Conn) net.Conn
			if tc.clientOff {
				wrapCli = legacy
			}
			if tc.serverOff {
				wrapSrv = legacy
			}
			cli, srv, cerr, serr := handshakeVia(t, Defaults(), Defaults(), wrapCli, wrapSrv)
			if cerr != nil || serr != nil {
				t.Fatalf("handshake: client %v, server %v", cerr, serr)
			}
			if cli.Negotiated().Mux != tc.want || srv.Negotiated().Mux != tc.want {
				t.Fatalf("mux = client %v / server %v, want %v",
					cli.Negotiated().Mux, srv.Negotiated().Mux, tc.want)
			}
			// The connection still moves ordinary messages either way.
			done := make(chan error, 1)
			go func() {
				_, err := cli.WriteMessage(payload(64 * 1024))
				done <- err
			}()
			got := make([]byte, 64*1024)
			if _, err := io.ReadFull(srv, got); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNegotiatedTransfer is the acceptance scenario: two endpoints with
// different PacketSize/BufferSize/level bounds handshake, agree, and move
// a >=10 MB payload byte-identically — at Parallelism 1 and 4.
func TestNegotiatedTransfer(t *testing.T) {
	data := payload(10 << 20)
	for _, par := range []int{1, 4} {
		par := par
		t.Run(map[int]string{1: "sequential", 4: "parallel4"}[par], func(t *testing.T) {
			t.Parallel()
			client := Defaults()
			client.PacketSize = 4096
			client.BufferSize = 100 * 1024
			client.MinLevel = 1
			client.MaxLevel = 10
			client.Parallelism = par
			server := Defaults()
			server.PacketSize = 16384
			server.BufferSize = 200 * 1024
			server.MinLevel = 0
			server.MaxLevel = 9
			server.Parallelism = par

			cli, srv := pair(t, client, server)
			if cli.Negotiated() != srv.Negotiated() {
				t.Fatalf("endpoints disagree: %v vs %v", cli.Negotiated(), srv.Negotiated())
			}
			neg := cli.Negotiated()
			if neg.PacketSize != 4096 || neg.BufferSize != 100*1024 || neg.MinLevel != 1 || neg.MaxLevel != 9 {
				t.Fatalf("unexpected negotiation: %v", neg)
			}

			done := make(chan error, 1)
			go func() {
				_, err := cli.WriteMessage(data)
				done <- err
			}()
			got := make([]byte, len(data))
			if _, err := io.ReadFull(srv, got); err != nil {
				t.Fatalf("receive: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("send: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload corrupted in transit")
			}
			// MinLevel 1 forbids the raw fast path, so the wire must be
			// smaller than the payload — proof the negotiated bounds were
			// actually applied to the engine.
			if s := cli.Stats(); s.WireSent >= int64(len(data)) {
				t.Errorf("WireSent = %d, want < %d (compression forced by negotiated MinLevel)", s.WireSent, len(data))
			}
		})
	}
}

// TestNegotiationClampsToWireLimits: offers beyond what the wire decoder
// accepts (MaxPacketLen, MaxGroupRaw) must be clamped during negotiation;
// otherwise the handshake would "succeed" on a configuration whose first
// large transfer dies with wire.ErrTooBig.
func TestNegotiationClampsToWireLimits(t *testing.T) {
	huge := Defaults()
	huge.PacketSize = wire.MaxPacketLen * 2
	huge.BufferSize = wire.MaxGroupRaw * 2
	cli, srv := pair(t, huge, huge)
	neg := cli.Negotiated()
	if neg.PacketSize > wire.MaxPacketLen || neg.BufferSize > wire.MaxGroupRaw {
		t.Fatalf("negotiated %v exceeds wire limits (packet <= %d, buffer <= %d)",
			neg, wire.MaxPacketLen, wire.MaxGroupRaw)
	}
	// And the agreed configuration actually carries a large transfer.
	data := payload(2 << 20)
	done := make(chan error, 1)
	go func() {
		_, err := cli.WriteMessageLevels(data, 1, 10)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatalf("receive on clamped config: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
}

// TestPerCallLevelsClampedToNegotiated: the per-call level escape hatch
// must not bypass what the handshake agreed — requests intersect with the
// negotiated range, and disjoint requests fail with ErrLevelMismatch.
func TestPerCallLevelsClampedToNegotiated(t *testing.T) {
	capped := Defaults()
	capped.MaxLevel = 2 // peer all but forbids compression
	cli, srv := pair(t, Defaults(), capped)
	if neg := cli.Negotiated(); neg.MaxLevel != 2 {
		t.Fatalf("negotiated %v, want MaxLevel 2", neg)
	}

	// Wholly outside the agreement: explicit error, nothing sent.
	if _, err := cli.WriteMessageLevels(payload(1024), 5, 10); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("err = %v, want ErrLevelMismatch", err)
	}
	if _, _, err := cli.SendStreamLevels(bytes.NewReader(payload(1024)), 1024, 5, 10); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("SendStreamLevels err = %v, want ErrLevelMismatch", err)
	}

	// Overlapping request: clamped to the intersection [1,2] and sent.
	data := payload(1 << 20)
	done := make(chan error, 1)
	go func() {
		_, err := cli.WriteMessageLevels(data, 1, 10)
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
}

func TestVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A future peer supporting only stream protocol 9.
		conn.Write(wire.AppendHandshake(nil, wire.Handshake{
			MinVersion: 9, MaxVersion: 9,
			PacketSize: 8192, BufferSize: 200 * 1024, MinLevel: 0, MaxLevel: 10,
		}))
		// Drain our hello so the close is clean.
		io.Copy(io.Discard, io.LimitReader(conn, wire.HandshakeLen))
	}()
	_, err = Dial("tcp", ln.Addr().String(), Defaults())
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("err = %T, want *HandshakeError", err)
	}
}

func TestLevelMismatch(t *testing.T) {
	forced := Defaults()
	forced.MinLevel = 5 // compression mandatory
	forbidden := Defaults()
	forbidden.MaxLevel = 2 // barely any compression allowed
	forbidden.MinLevel = 0

	ln, err := Listen("tcp", "127.0.0.1:0", forbidden)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		acceptErr <- err
	}()
	if _, err := Dial("tcp", ln.Addr().String(), forced); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("dial err = %v, want ErrLevelMismatch", err)
	}
	if err := <-acceptErr; !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("accept err = %v, want ErrLevelMismatch", err)
	}
}

// TestPreHandshakePeer covers both directions of talking to an endpoint
// that skips the handshake: the old-style speaker gets ErrNotHandshake
// here, and an explicit error (ErrBadKind) on its own side — never a hang
// or a silently mismatched stream.
func TestPreHandshakePeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	oldPeer := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			oldPeer <- err
			return
		}
		defer adoc.Close(conn) // releases the package-registry entry too
		// A pre-handshake peer writes a plain AdOC message immediately...
		if _, _, err := adoc.Write(conn, []byte("legacy hello")); err != nil {
			oldPeer <- err
			return
		}
		// ...and tries to read one back; it finds our handshake frame.
		_, err = adoc.Read(conn, make([]byte, 64))
		oldPeer <- err
	}()
	_, err = Dial("tcp", ln.Addr().String(), Defaults())
	if !errors.Is(err, wire.ErrNotHandshake) {
		t.Fatalf("dial err = %v, want wire.ErrNotHandshake", err)
	}
	if err := <-oldPeer; !errors.Is(err, wire.ErrBadKind) {
		t.Fatalf("legacy peer err = %v, want wire.ErrBadKind", err)
	}
}

func TestNotAdocPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	}()
	if _, err := Dial("tcp", ln.Addr().String(), Defaults()); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("err = %v, want wire.ErrBadMagic", err)
	}
}

func TestHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Accept and say nothing: the dialer must not hang.
		time.Sleep(2 * time.Second)
		conn.Close()
	}()
	opts := Defaults()
	opts.HandshakeTimeout = 100 * time.Millisecond
	start := time.Now()
	if _, err := Dial("tcp", ln.Addr().String(), opts); err == nil {
		t.Fatal("handshake against a mute peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestDialContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, "tcp", "127.0.0.1:1", Defaults()); err == nil {
		t.Fatal("canceled dial succeeded")
	}
}

func TestInvalidLocalBounds(t *testing.T) {
	opts := Defaults()
	opts.MinLevel = 9
	opts.MaxLevel = 3
	if _, err := Dial("tcp", "127.0.0.1:1", opts); err == nil {
		t.Fatal("invalid bounds accepted")
	}
}

// TestHandshakeDoesNotEatStreamBytes guards the layering: the handshake
// reader must consume exactly the handshake frame, leaving the first real
// message intact even when it arrives in the same TCP segment.
func TestHandshakeDoesNotEatStreamBytes(t *testing.T) {
	cli, srv := pair(t, Defaults(), Defaults())
	msg := payload(2 << 20)
	done := make(chan error, 1)
	go func() {
		_, err := cli.WriteMessage(msg)
		done <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("first message corrupted")
	}
}
