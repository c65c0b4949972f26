package adocnet

import (
	"context"
	"errors"
	"net"
	"sync"

	"adoc"
)

// ErrServerClosed is returned by Serve and ListenAndServe after Shutdown
// or Close.
var ErrServerClosed = errors.New("adocnet: server closed")

// Handler serves one negotiated connection. The same Conn — and therefore
// the same engine, with its adaptive controller history and stats — is
// reused for every message the peer sends over the connection's lifetime;
// the handler should return when the peer disconnects.
type Handler func(*Conn)

// Server accepts AdOC connections and dispatches each to a Handler on its
// own goroutine. It tracks every live connection so Shutdown can drain
// them and Stats can aggregate across them.
type Server struct {
	opts    Options
	handler Handler

	mu        sync.Mutex
	listeners map[*Listener]struct{}
	pending   map[net.Conn]struct{} // accepted, handshake still running
	conns     map[*Conn]struct{}
	retired   adoc.Stats // accumulated stats of finished connections
	closed    bool
	idle      *sync.Cond // signaled when conns drains to empty
}

// NewServer returns a server that runs handler for every accepted
// connection. ListenAndServe negotiates with opts; Serve negotiates with
// its listener's Options.
func NewServer(opts Options, handler Handler) *Server {
	s := &Server{
		opts:      opts,
		handler:   handler,
		listeners: map[*Listener]struct{}{},
		pending:   map[net.Conn]struct{}{},
		conns:     map[*Conn]struct{}{},
	}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(network, addr string) error {
	ln, err := Listen(network, addr, s.opts)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener fails or the server
// shuts down. The handshake runs on each connection's own goroutine —
// never on the accept loop — so one stalled or incompatible client
// cannot head-of-line-block acceptance for everyone else; clients that
// fail the handshake are dropped (the server is fine). Connections
// negotiate with the listener's Options, exactly as ln.Accept would;
// ListenAndServe listens with the server's. Always returns a non-nil
// error, ErrServerClosed after Shutdown/Close.
func (s *Server) Serve(ln *Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	for {
		raw, err := ln.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		go func() {
			// Registered as pending before the handshake so Close (and a
			// forced Shutdown) can tear down a mid-handshake socket instead
			// of leaving it to run out the handshake timeout unsupervised.
			if !s.trackPending(raw) {
				raw.Close()
				return
			}
			c, err := Handshake(raw, ln.opts)
			s.untrackPending(raw)
			if err != nil {
				raw.Close()
				return
			}
			if !s.track(c) {
				c.Close()
				return
			}
			defer s.untrack(c)
			s.handler(c)
		}()
	}
}

// track registers a live connection; it refuses (returns false) once the
// server is shutting down.
func (s *Server) track(c *Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// trackPending registers a raw connection whose handshake is in flight;
// it refuses once the server is shutting down.
func (s *Server) trackPending(raw net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.pending[raw] = struct{}{}
	return true
}

func (s *Server) untrackPending(raw net.Conn) {
	s.mu.Lock()
	delete(s.pending, raw)
	s.mu.Unlock()
}

// untrack retires a connection: its final stats fold into the aggregate
// and its handler no longer blocks Shutdown.
func (s *Server) untrack(c *Conn) {
	c.Close()
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.retired.Accumulate(c.CounterStats())
	}
	if len(s.conns) == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// Stats aggregates engine counters across every connection the server has
// seen: live ones snapshotted now plus all retired ones.
func (s *Server) Stats() adoc.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := s.retired
	// Detach the slice so neither the live accumulation below nor the
	// caller can write through into the retained aggregate.
	agg.Controller.LevelCount = append([]int64(nil), s.retired.Controller.LevelCount...)
	for c := range s.conns {
		// CounterStats: Accumulate drops the non-additive Adapt snapshot
		// anyway, so don't build one per connection per poll.
		agg.Accumulate(c.CounterStats())
	}
	return agg
}

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown gracefully stops the server: listeners close immediately (no
// new connections), then Shutdown waits for every in-flight handler to
// finish draining its messages. If ctx expires first, the remaining
// connections are closed forcibly and ctx's error is returned without
// waiting further — a handler stuck in non-connection work cannot pin
// Shutdown past its deadline (its goroutine unwinds on its own once the
// closed connection surfaces an error).
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeListeners()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for len(s.conns) > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		return ctx.Err()
	}
}

// Close stops the server immediately: listeners and all live connections
// are closed without draining.
func (s *Server) Close() error {
	s.closeListeners()
	s.closeConns()
	return nil
}

func (s *Server) closeListeners() {
	s.mu.Lock()
	s.closed = true
	lns := make([]*Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	raws := make([]net.Conn, 0, len(s.pending))
	for raw := range s.pending {
		raws = append(raws, raw)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	// Mid-handshake sockets too: closing them aborts the handshake's
	// blocking reads instead of leaving each to run out its timeout.
	for _, raw := range raws {
		raw.Close()
	}
}

// Addrs returns the addresses of the server's active listeners.
func (s *Server) Addrs() []net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrs := make([]net.Addr, 0, len(s.listeners))
	for ln := range s.listeners {
		addrs = append(addrs, ln.Addr())
	}
	return addrs
}
