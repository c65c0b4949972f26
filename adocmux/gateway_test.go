package adocmux

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adoc/adocnet"
)

// echoServer runs a plain-TCP echo backend, oblivious to AdOC.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				if tc, ok := c.(*net.TCPConn); ok {
					tc.CloseWrite()
				} else {
					c.Close()
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// gatewayChain stands up backend echo server <- egress <- ingress and
// returns the ingress address plain TCP clients should dial.
func gatewayChain(t *testing.T, opts adocnet.Options) (ingressAddr string, in *Ingress) {
	t.Helper()
	backend := echoServer(t)

	egLn, err := adocnet.Listen("tcp", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	eg := NewEgress(backend.Addr().String(), Config{})
	go eg.Serve(egLn)
	t.Cleanup(func() { egLn.Close(); eg.Close() })

	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in = NewIngress(egLn.Addr().String(), opts, Config{})
	go in.Serve(inLn)
	t.Cleanup(func() { in.Close() })
	return inLn.Addr().String(), in
}

// TestProxyAcceptance is the ISSUE's acceptance scenario end to end: 32
// concurrent plain-TCP clients move 20 MB total through two adocproxy
// gateways (client -> ingress -> one AdOC connection -> egress -> echo
// backend) byte-identically, at Parallelism 1 and 4, and the compressible
// traffic costs fewer wire bytes than payload bytes on the tunnel.
func TestProxyAcceptance(t *testing.T) {
	const (
		streams = 32
		total   = 20 << 20
		per     = total / streams
	)
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			t.Parallel()
			opts := TransportOptions()
			opts.Parallelism = par
			// Loopback outruns any compressor; pin an LZF floor so the
			// wire-byte assertion is meaningful (see TestManyStreamsByteIdentity).
			opts.MinLevel = 1
			addr, in := gatewayChain(t, opts)

			var wg sync.WaitGroup
			errs := make(chan error, streams)
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						errs <- err
						return
					}
					defer conn.Close()
					want := compressible(per, int64(1000+i))
					go func() {
						conn.Write(want)
						conn.(*net.TCPConn).CloseWrite()
					}()
					got, err := io.ReadAll(conn)
					if err != nil {
						errs <- fmt.Errorf("client %d: %w", i, err)
						return
					}
					if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("client %d: bytes differ after the round trip", i)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			s, ok := in.Stats()
			if !ok {
				t.Fatal("ingress never dialed a session")
			}
			if s.RawSent < int64(total) {
				t.Fatalf("tunnel RawSent = %d, want >= %d", s.RawSent, total)
			}
			if s.WireSent >= s.RawSent {
				t.Errorf("tunnel WireSent = %d >= RawSent = %d: proxy traffic did not compress", s.WireSent, s.RawSent)
			}
			// The adapt snapshot must be live and honoring the negotiated
			// floor — the "why this level" view the proxy reports.
			if s.Adapt.Min != 1 {
				t.Errorf("Adapt.Min = %d, want the negotiated floor 1", s.Adapt.Min)
			}
			if s.Adapt.BandwidthBps[s.Adapt.Level] == 0 && s.Controller.Updates > 0 {
				t.Errorf("no bandwidth EWMA recorded for the current level %d", s.Adapt.Level)
			}
		})
	}
}

// TestProxySurvivesBackendRefusal: a stream whose backend dial fails is
// refused alone; the tunnel keeps serving other clients.
func TestProxySurvivesBackendRefusal(t *testing.T) {
	backend := echoServer(t)
	opts := TransportOptions()

	egLn, err := adocnet.Listen("tcp", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer egLn.Close()
	// Point the egress at a dead backend first.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	eg := NewEgress(deadAddr, Config{})
	go eg.Serve(egLn)
	defer eg.Close()

	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngress(egLn.Addr().String(), opts, Config{})
	go in.Serve(inLn)
	defer in.Close()

	// First client: backend refused; the client sees EOF, not a hang.
	c1, err := net.Dial("tcp", inLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c1.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == io.EOF {
		// expected
	} else if err == nil {
		t.Fatal("read from refused backend returned data")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("refused stream hung instead of closing")
	}
	c1.Close()

	// Re-point the egress at the live backend and verify the SAME tunnel
	// session still works.
	eg.SetBackend(backend.Addr().String())

	c2, err := net.Dial("tcp", inLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	msg := []byte("still alive after a refused sibling")
	go func() {
		c2.Write(msg)
		c2.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(c2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

// TestIngressRedialsDeadSession: killing the tunnel session costs the
// flows in flight, not the ingress — the next client gets a fresh
// session.
func TestIngressRedialsDeadSession(t *testing.T) {
	opts := TransportOptions()
	addr, in := gatewayChain(t, opts)

	roundtrip := func(msg []byte) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		go func() {
			conn.Write(msg)
			conn.(*net.TCPConn).CloseWrite()
		}()
		got, err := io.ReadAll(conn)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			return fmt.Errorf("echo mismatch")
		}
		return nil
	}

	if err := roundtrip([]byte("first tunnel")); err != nil {
		t.Fatal(err)
	}
	// Kill the session out from under the ingress.
	in.mu.Lock()
	sess := in.sess
	in.mu.Unlock()
	if sess == nil {
		t.Fatal("no session after a successful roundtrip")
	}
	sess.Close()

	if err := roundtrip([]byte("second tunnel, fresh session")); err != nil {
		t.Fatalf("ingress did not recover from a dead session: %v", err)
	}
}

// TestEgressSilentClientDoesNotBlockTunnels: a client that connects to
// the egress and never handshakes must not hold up the next ingress
// tunnel, even under a long handshake timeout.
func TestEgressSilentClientDoesNotBlockTunnels(t *testing.T) {
	opts := adocnet.Defaults()
	opts.HandshakeTimeout = 60 * time.Second
	egLn, err := adocnet.Listen("tcp", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	eg := NewEgress(echoServer(t).Addr().String(), Config{})
	go eg.Serve(egLn)
	t.Cleanup(func() { egLn.Close(); eg.Close() })

	silent, err := net.Dial("tcp", egLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := adocnet.DialContext(ctx, "tcp", egLn.Addr().String(), adocnet.Defaults())
	if err != nil {
		t.Fatalf("tunnel handshake behind a silent client: %v", err)
	}
	c.Close()
}
