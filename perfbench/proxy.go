package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc/adocmux"
	"adoc/adocnet"
)

// proxyMix: payloads of 1 KB to 1 MB.
var proxyMix = mix{
	minSize: 1 << 10, maxSize: 1 << 20,
	strata: 16, blocks: 8, poolSize: 4 << 20,
	warmSize: 1 << 10,
}

const proxyOpTimeout = 10 * time.Second

// echoServer is the plain TCP backend: it writes back whatever it reads.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
	mu sync.Mutex
	cs map[net.Conn]struct{}
}

func newEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, cs: map[net.Conn]struct{}{}}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.cs[c] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				io.Copy(c, c)
				c.Close()
				e.mu.Lock()
				delete(e.cs, c)
				e.mu.Unlock()
			}()
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for c := range e.cs {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// echoClients are the workload's plain TCP client connections, each
// doing one write-then-read-back echo at a time.
type echoClients struct {
	in    *inputs
	addr  string
	conns []net.Conn
}

func (cl *echoClients) do(c, i int, tr *tracer, parent int32) (int64, error) {
	p := cl.in.payload(i)
	if cl.conns[c] == nil {
		conn, err := net.Dial("tcp", cl.addr)
		if err != nil {
			return 0, fmt.Errorf("dial: %w", err)
		}
		cl.conns[c] = conn
	}
	conn := cl.conns[c]
	conn.SetDeadline(time.Now().Add(proxyOpTimeout))
	werr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := conn.Write(p)
		tr.add("client.Write", int64(i), parent, t0, time.Now())
		werr <- err
	}()
	got := make([]byte, len(p))
	n, err := io.ReadFull(conn, got)
	tr.add("client.Read", int64(i), parent, t0, time.Now())
	if e := <-werr; err == nil && e != nil {
		err = e
	}
	switch {
	case err != nil:
		err = fmt.Errorf("echo: %d of %d bytes back: %w", n, len(p), err)
	case !bytes.Equal(got, p):
		err = fmt.Errorf("echoed bytes differ from those sent")
	}
	if err != nil {
		conn.Close()
		cl.conns[c] = nil // the stream is out of step; start over
		return 0, err
	}
	return int64(len(p)), nil
}

func (cl *echoClients) closeConns() {
	for i, c := range cl.conns {
		if c != nil {
			c.Close()
			cl.conns[i] = nil
		}
	}
}

// proxyStack is cmd/adocproxy's path in one process: plain TCP clients
// to an adocmux.Ingress, one AdOC tunnel over loopback to an
// adocmux.Egress, and on to a plain TCP echo backend.
type proxyStack struct {
	echoClients
	echo    *echoServer
	ingLn   net.Listener
	egLn    net.Listener
	ingress *adocmux.Ingress
	egress  *adocmux.Egress
	sock    *sockCounters
	tr      atomic.Pointer[tracer] // spans for egress handshakes
	wg      sync.WaitGroup
}

func newProxy(in *inputs, sock *sockCounters, clients int) (*proxyStack, error) {
	s := &proxyStack{sock: sock}
	var err error
	if s.echo, err = newEcho(); err != nil {
		return nil, err
	}
	s.egress = adocmux.NewEgress(s.echo.addr(), adocmux.Config{})
	if s.egLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	opts := adocmux.TransportOptions()
	s.wg.Add(1)
	go s.serveEgress(&countListener{Listener: s.egLn, c: sock}, opts)

	s.ingress = adocmux.NewIngress(s.egLn.Addr().String(), opts, adocmux.Config{})
	if s.ingLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.ingress.Serve(s.ingLn)
	}()
	s.echoClients = echoClients{in: in, addr: s.ingLn.Addr().String(), conns: make([]net.Conn, clients)}
	return s, nil
}

// serveEgress is Egress.Serve with the handshake timed: accept a tunnel
// connection, run adocnet.Handshake on it, hand it to the egress.
func (s *proxyStack) serveEgress(ln net.Listener, opts adocnet.Options) {
	defer s.wg.Done()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t0 := time.Now()
			c, err := adocnet.Handshake(raw, opts)
			s.tr.Load().add("adocnet.Handshake", -1, -1, t0, time.Now())
			if err != nil {
				raw.Close()
				return
			}
			s.egress.ServeConn(c)
		}()
	}
}

func (s *proxyStack) setTracer(tr *tracer) { s.tr.Store(tr) }

func (s *proxyStack) counters() layerSnap {
	st, _ := s.ingress.Stats()
	return layerSnap{sock: s.sock.snap(), eng: st}
}

func (s *proxyStack) close() {
	s.closeConns()
	if s.ingress != nil {
		s.ingress.Close()
	}
	if s.ingLn != nil {
		s.ingLn.Close()
	}
	if s.egress != nil {
		s.egress.Close()
	}
	if s.egLn != nil {
		s.egLn.Close()
	}
	s.echo.close()
	s.wg.Wait()
}

// directStack is the bare-transport baseline for the proxy: the same
// clients talking straight to the echo backend.
type directStack struct {
	echoClients
	echo *echoServer
}

func newDirect(in *inputs, clients int) (*directStack, error) {
	e, err := newEcho()
	if err != nil {
		return nil, err
	}
	return &directStack{echoClients{in: in, addr: e.addr(), conns: make([]net.Conn, clients)}, e}, nil
}

func (s *directStack) counters() layerSnap { return layerSnap{} }

func (s *directStack) close() {
	s.closeConns()
	s.echo.close()
}
