package adocrpc

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc/adocmux"
	"adoc/adocnet"
)

// Handler executes one call. args are the request's opaque byte-slice
// arguments; the returned slices are the results. A non-nil error
// reaches the client as a *RemoteError with CodeApp and the error's
// text. ctx is cancelled when the server force-closes (Shutdown deadline
// expired or Close) — long-running handlers should watch it.
type Handler func(ctx context.Context, args [][]byte) ([][]byte, error)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Options configures this endpoint's side of the handshake; nil means
	// adocmux.TransportOptions().
	Options *adocnet.Options
	// Mux tunes the stream sessions (zero value = adocmux defaults).
	Mux adocmux.Config
	// MaxConcurrent bounds handler executions across all sessions
	// (default DefaultMaxConcurrent). When the bound is reached, further
	// streams wait in their session's accept queue — backpressure, not
	// rejection: the client's calls slow down instead of failing.
	MaxConcurrent int
	// RequestTimeout bounds reading one call's request off its stream
	// (default DefaultRequestTimeout; negative disables). Each call holds
	// a MaxConcurrent slot while its request is read, so without a bound
	// a client that opens streams and never sends (or never half-closes)
	// would pin every worker slot forever and starve all other clients.
	// Size it for the slowest legitimate request upload, not the
	// handler's run time — the handler itself is not bounded.
	RequestTimeout time.Duration
}

// Server defaults.
const (
	// DefaultMaxConcurrent is the default bound on concurrently executing
	// handlers.
	DefaultMaxConcurrent = 128
	// DefaultRequestTimeout is the default bound on receiving one
	// request — generous enough for bulk arguments over a slow WAN,
	// finite so idle streams cannot pin worker slots.
	DefaultRequestTimeout = 2 * time.Minute
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Options == nil {
		o := adocmux.TransportOptions()
		c.Options = &o
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	return c
}

// Server answers adocrpc calls: it accepts connections, runs the adocnet
// handshake and a mux session on each, and dispatches every incoming
// stream to a registered Handler under a bounded worker semaphore.
type Server struct {
	cfg      ServerConfig
	metrics  serverMetrics
	sem      chan struct{} // worker slots
	baseCtx  context.Context
	forceOff context.CancelFunc // cancels handler contexts on force-close

	hmu      sync.RWMutex
	handlers map[string]Handler

	mu        sync.Mutex
	idle      *sync.Cond // signaled when calls drains to zero
	listeners map[net.Listener]struct{}
	sessions  map[*adocmux.Session]struct{}
	calls     int
	draining  bool // Shutdown started: refuse new calls with CodeShutdown
	closed    bool

	// Delta extension state: successful response sections are numbered
	// from one server-wide sequence and retained per method, so a client
	// announcing "I still hold seq N for this method" can be answered
	// with a delta against the exact bytes it caches.
	respSeq atomic.Uint64
	cmu     sync.Mutex
	caches  map[string]*methodCache
}

// deltaCacheDepth is how many recent response sections each method
// retains as delta bases. Clients announce the newest section they hold,
// but under concurrent load that announcement lags by up to the number
// of in-flight calls (each completion pushes a newer section), so the
// ring must be comfortably deeper than any realistic per-method
// concurrency or the base is evicted before it is ever used.
const deltaCacheDepth = 64

type cachedSection struct {
	seq     uint64
	section []byte
}

// methodCache is one method's ring of recent response sections.
type methodCache struct {
	mu   sync.Mutex
	ring [deltaCacheDepth]cachedSection
	next int
}

func (c *methodCache) store(seq uint64, section []byte) {
	c.mu.Lock()
	c.ring[c.next] = cachedSection{seq: seq, section: section}
	c.next = (c.next + 1) % deltaCacheDepth
	c.mu.Unlock()
}

// lookup returns the retained section numbered seq, or nil.
func (c *methodCache) lookup(seq uint64) []byte {
	if seq == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ring {
		if c.ring[i].seq == seq {
			return c.ring[i].section
		}
	}
	return nil
}

// cache returns (creating on first use) the section cache for method.
func (s *Server) cache(method string) *methodCache {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	c := s.caches[method]
	if c == nil {
		c = &methodCache{}
		s.caches[method] = c
	}
	return c
}

// NewServer returns a server with no handlers registered; it serves
// nothing until Serve.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   newServerMetrics(cfg.Options.Metrics),
		handlers:  map[string]Handler{},
		listeners: map[net.Listener]struct{}{},
		sessions:  map[*adocmux.Session]struct{}{},
		caches:    map[string]*methodCache{},
	}
	s.sem = make(chan struct{}, s.cfg.MaxConcurrent)
	s.idle = sync.NewCond(&s.mu)
	s.baseCtx, s.forceOff = context.WithCancel(context.Background())
	return s
}

// Register installs (or replaces) the handler for method. Safe to call
// while serving.
func (s *Server) Register(method string, h Handler) {
	s.hmu.Lock()
	s.handlers[method] = h
	s.hmu.Unlock()
}

// lookup returns the handler for method, or nil.
func (s *Server) lookup(method string) Handler {
	s.hmu.RLock()
	defer s.hmu.RUnlock()
	return s.handlers[method]
}

// Serve accepts connections on ln until the listener fails or the
// server shuts down. Each connection's handshake and session run on
// their own goroutines; incompatible or non-mux peers are dropped
// without disturbing the accept loop. Always returns a non-nil error —
// ErrServerClosed after Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
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
		raw, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return ErrServerClosed
			}
			return err
		}
		go s.serveConn(raw)
	}
}

// serveConn upgrades one raw connection and pumps its streams.
func (s *Server) serveConn(raw net.Conn) {
	conn, err := adocnet.Handshake(raw, *s.cfg.Options)
	if err != nil {
		raw.Close()
		return
	}
	sess, err := adocmux.Server(conn, s.cfg.Mux)
	if err != nil {
		conn.Close()
		return
	}
	conn.Inspect().SetKind("rpc-server")
	if !s.trackSession(sess) {
		sess.Close()
		return
	}
	defer s.untrackSession(sess)

	for {
		st, err := sess.AcceptStream()
		if err != nil {
			return
		}
		// The semaphore bounds handler concurrency across every session.
		// Waiting here applies backpressure through the session's accept
		// backlog and per-stream credit rather than dropping calls; a
		// force-close releases the wait.
		select {
		case s.sem <- struct{}{}:
		case <-s.baseCtx.Done():
			st.Close()
			return
		}
		s.mu.Lock()
		refuse := s.draining || s.closed
		if !refuse {
			s.calls++
		}
		s.mu.Unlock()
		if refuse {
			<-s.sem
			go func() {
				// The request must be read (under the usual deadline) before
				// refusing: a delta-aware client sent an extended request and
				// parses the refusal in the extended shape.
				if s.cfg.RequestTimeout > 0 {
					st.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
				}
				_, _, _, ext, _ := readRequest(st)
				if ext {
					writeResponseDelta(st, CodeShutdown, "server draining", 0, 0, 0, appendFrames(nil, nil))
				} else {
					writeResponse(st, CodeShutdown, "server draining", nil)
				}
				st.Close()
			}()
			continue
		}
		go func() {
			defer func() {
				<-s.sem
				s.mu.Lock()
				s.calls--
				if s.calls == 0 {
					s.idle.Broadcast()
				}
				s.mu.Unlock()
			}()
			s.serveStream(st)
		}()
	}
}

// serveStream runs one call: read the full request (the client's
// half-close bounds it), dispatch, answer with results or a typed wire
// error, and close the stream.
func (s *Server) serveStream(st *adocmux.Stream) {
	defer st.Close()
	s.metrics.inflight.Inc()
	defer s.metrics.inflight.Dec()
	if s.cfg.RequestTimeout > 0 {
		// The worker slot is held from here: bound how long a silent or
		// trickling client may occupy it before the handler even runs.
		st.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	}
	method, args, baseSeq, ext, err := readRequest(st)
	st.SetReadDeadline(time.Time{}) // the handler owns the stream now
	// Every path answers in the shape the request spoke: plain for plain
	// requests, extended for extended ones — errors included, so the
	// client parses exactly one format per call.
	respond := func(code Code, msg string, results [][]byte) {
		if !ext {
			writeResponse(st, code, msg, results)
			return
		}
		s.respondDelta(st, method, baseSeq, code, msg, results)
	}
	if err != nil {
		// Includes clients that vanished mid-request (stream reset): the
		// response write below then fails harmlessly on the dead stream.
		s.metrics.reqBad.Inc()
		respond(CodeBadRequest, err.Error(), nil)
		return
	}
	h := s.lookup(method)
	if h == nil {
		s.metrics.reqUnknown.Inc()
		respond(CodeUnknownMethod, method, nil)
		return
	}
	results, err := h(s.baseCtx, args)
	if err != nil {
		s.metrics.reqApp.Inc()
		respond(CodeApp, err.Error(), nil)
		return
	}
	s.metrics.reqOK.Inc()
	respond(CodeOK, "", results)
}

// respondDelta answers one extended request. Successful sections are
// numbered and cached as future delta bases; when the client's announced
// base is still retained and the delta actually saves bytes, the section
// ships as a delta, otherwise plain. Failures carry seq 0 ("do not
// cache") and an empty section.
func (s *Server) respondDelta(st *adocmux.Stream, method string, baseSeq uint64, code Code, msg string, results [][]byte) {
	section := appendFrames(nil, results)
	if code != CodeOK {
		writeResponseDelta(st, code, msg, 0, 0, 0, section)
		return
	}
	c := s.cache(method)
	seq := s.respSeq.Add(1)
	payload, dflags, echo := section, byte(0), uint64(0)
	if base := c.lookup(baseSeq); base != nil {
		if d := deltaEncode(nil, section, base); d != nil {
			payload, dflags, echo = d, dflagDelta, baseSeq
			s.metrics.deltaSent.Inc()
		}
	}
	c.store(seq, section)
	writeResponseDelta(st, code, msg, dflags, seq, echo, payload)
}

func (s *Server) trackSession(sess *adocmux.Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[sess] = struct{}{}
	return true
}

func (s *Server) untrackSession(sess *adocmux.Session) {
	sess.Close()
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// NumSessions returns the number of live sessions.
func (s *Server) NumSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// InFlight returns the number of calls currently executing.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Shutdown drains the server: listeners close, calls arriving after this
// point are refused with the typed CodeShutdown error, and Shutdown
// waits for every in-flight call to finish before closing the sessions
// (flushing their final responses). If ctx expires first, handler
// contexts are cancelled and the sessions force-closed; ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for s.calls > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
	}()
	select {
	case <-done:
		s.closeSessions()
		return nil
	case <-ctx.Done():
		s.forceOff()
		s.closeSessions()
		// Unwedge the drain watcher too: force-closed sessions fail their
		// streams, so the remaining handlers unwind on their own.
		return ctx.Err()
	}
}

// Close stops the server immediately: listeners and sessions close and
// handler contexts are cancelled; in-flight calls fail.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.forceOff()
	s.closeSessions()
	return nil
}

func (s *Server) closeSessions() {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*adocmux.Session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.Close()
	}
}
