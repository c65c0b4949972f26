package adocmux

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/obs"
)

// This file implements adocproxy's two halves as a library, so the
// gateways are testable in-process and reusable by other middleware; the
// adocproxy command is a flag wrapper around them.
//
// The deployment shape is the paper's transparent-middleware story made
// operational: unmodified applications speak plain TCP to the Ingress
// gateway near them; it tunnels every accepted connection as one mux
// stream over a single long-lived AdOC connection to the Egress gateway,
// which dials a real backend and pipes bytes. Only the
// gateway-to-gateway hop is compressed — adaptively, for the aggregate
// of all tunneled flows, with one shared controller and one shared
// pipeline.

// Registry metric families the gateways publish.
const (
	// MetricTunneledConns counts client connections the ingress accepted
	// for tunneling (whether or not the tunnel dial then succeeded).
	MetricTunneledConns = "adoc_gateway_tunneled_conns_total"
	// MetricActiveTunneled is the client connections currently tunneled.
	MetricActiveTunneled = "adoc_gateway_active_tunneled_conns"
	// MetricTunnelDials counts dials of the egress-gateway session.
	MetricTunnelDials = "adoc_gateway_tunnel_dials_total"
	// MetricTunnelDialFailures counts egress-gateway dials that failed.
	MetricTunnelDialFailures = "adoc_gateway_tunnel_dial_failures_total"
	// MetricTunnelBytes counts raw (pre-compression) bytes piped through
	// the gateway, labeled direction="in" (from the plain-TCP side into
	// the tunnel) and direction="out" (from the tunnel back to the
	// plain-TCP side).
	MetricTunnelBytes = "adoc_gateway_tunnel_bytes_total"

	// MetricBackendHealthy is 1 while the labeled backend passes health
	// checks (and hasn't failed a stream dial since), else 0.
	MetricBackendHealthy = "adoc_gateway_backend_healthy"
	// MetricBackendStreams is the tunneled streams currently piped to the
	// labeled backend.
	MetricBackendStreams = "adoc_gateway_backend_active_streams"
	// MetricBackendDials counts backend dial attempts per backend.
	MetricBackendDials = "adoc_gateway_backend_dials_total"
	// MetricBackendDialFailures counts failed backend dials per backend.
	MetricBackendDialFailures = "adoc_gateway_backend_dial_failures_total"

	// MetricAdaptLevel is the tunnel connection's current compression
	// level (-1 before the first tunnel dial).
	MetricAdaptLevel = "adoc_adapt_level"
	// MetricAdaptPinRemaining is the incompressible-guard pin countdown.
	MetricAdaptPinRemaining = "adoc_adapt_pin_remaining"
	// MetricAdaptBypassRun is the current consecutive entropy-bypass run.
	MetricAdaptBypassRun = "adoc_adapt_bypass_run"
	// MetricAdaptLevelBandwidth is the visible-bandwidth EWMA per level,
	// in raw bytes per second, labeled level="0".."10".
	MetricAdaptLevelBandwidth = "adoc_adapt_level_bandwidth_bytes_per_second"
)

// ErrNoHealthyBackend is returned (and recorded against the refused
// stream) when every configured backend failed to dial.
var ErrNoHealthyBackend = errors.New("adocmux: no healthy backend")

// halfCloser is the shutdown(SHUT_WR) surface shared by *net.TCPConn and
// *Stream.
type halfCloser interface {
	CloseWrite() error
}

// countingWriter bumps a counter with every byte written through it.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(int64(n))
	}
	return n, err
}

// proxyPipe copies bytes both ways between the plain-TCP side and the
// tunnel side, propagating EOF as a half-close in each direction, and
// closes both once both directions finish. This preserves
// request/response protocols that rely on FIN (e.g. "write request,
// shutdown, read reply to EOF"). Raw bytes are counted per direction:
// in covers plain→tunnel, out covers tunnel→plain.
func proxyPipe(plain, tunnel io.ReadWriteCloser, in, out *obs.Counter) {
	var wg sync.WaitGroup
	half := func(dst, src io.ReadWriteCloser, c *obs.Counter) {
		defer wg.Done()
		io.Copy(countingWriter{w: dst, c: c}, src)
		if hc, ok := dst.(halfCloser); ok {
			hc.CloseWrite()
		} else {
			dst.Close()
		}
	}
	wg.Add(2)
	go half(plain, tunnel, out)
	half(tunnel, plain, in)
	wg.Wait()
	plain.Close()
	tunnel.Close()
}

// ingressMetrics holds the ingress's children of the registry families.
type ingressMetrics struct {
	tunneled  *obs.Counter
	active    *obs.Gauge
	dials     *obs.Counter
	dialFails *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
}

func newIngressMetrics(reg *obs.Registry) ingressMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return ingressMetrics{
		tunneled:  reg.Counter(MetricTunneledConns, "Client connections accepted for tunneling.").Child(),
		active:    reg.Gauge(MetricActiveTunneled, "Client connections currently tunneled.").Child(),
		dials:     reg.Counter(MetricTunnelDials, "Dials of the egress-gateway session.").Child(),
		dialFails: reg.Counter(MetricTunnelDialFailures, "Failed dials of the egress-gateway session.").Child(),
		bytesIn:   tunnelBytesCounter(reg, "in"),
		bytesOut:  tunnelBytesCounter(reg, "out"),
	}
}

func tunnelBytesCounter(reg *obs.Registry, direction string) *obs.Counter {
	return reg.Counter(MetricTunnelBytes,
		"Raw bytes piped through the gateway, by direction relative to the tunnel.",
		obs.Label{Name: "direction", Value: direction}).Child()
}

// Ingress is the application-facing gateway: it accepts plain TCP
// connections and tunnels each as one mux stream over a single
// long-lived AdOC connection to the peer (Egress) gateway. The session
// is dialed lazily on first use and redialed transparently if it dies,
// so a gateway restart on the far side costs the flows in flight, not
// the ingress process.
type Ingress struct {
	peerAddr string
	opts     adocnet.Options
	cfg      Config
	metrics  ingressMetrics

	mu       sync.Mutex
	idle     *sync.Cond // signaled when active drains to zero
	sess     *Session
	ln       net.Listener
	active   int
	draining bool
	closed   bool
}

// NewIngress returns an ingress gateway that tunnels to the egress
// gateway at peerAddr, negotiating the AdOC connection with opts (use
// TransportOptions as the base) and running the session with cfg. The
// gateway's own counters register in cfg.Metrics (the default registry
// when nil), alongside the session's.
func NewIngress(peerAddr string, opts adocnet.Options, cfg Config) *Ingress {
	in := &Ingress{peerAddr: peerAddr, opts: opts, cfg: cfg,
		metrics: newIngressMetrics(cfg.Metrics)}
	in.idle = sync.NewCond(&in.mu)
	return in
}

// dialTimeout bounds one attempt to reach the egress gateway, so an
// unreachable peer fails clients promptly instead of pinning them on
// the OS connect timeout.
const dialTimeout = 15 * time.Second

// session returns the live session, dialing a fresh one if none exists
// or the previous one died. The dial happens OUTSIDE the ingress lock:
// Close, Stats, and other clients must never serialize behind a slow or
// blackholed connect. Concurrent cold-start dials may race; the loser
// closes its session and adopts the winner's.
func (in *Ingress) session() (*Session, error) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if in.sess != nil && !in.sess.IsClosed() {
		sess := in.sess
		in.mu.Unlock()
		return sess, nil
	}
	in.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	in.metrics.dials.Inc()
	conn, err := adocnet.DialContext(ctx, "tcp", in.peerAddr, in.opts)
	if err != nil {
		in.metrics.dialFails.Inc()
		return nil, fmt.Errorf("adocmux: dialing egress %s: %w", in.peerAddr, err)
	}
	sess, err := Client(conn, in.cfg)
	if err != nil {
		in.metrics.dialFails.Inc()
		conn.Close()
		return nil, err
	}
	conn.Inspect().SetKind("gateway-ingress")

	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		sess.Close()
		return nil, ErrSessionClosed
	}
	if in.sess != nil && !in.sess.IsClosed() {
		sess.Close() // another client won the dial race
		return in.sess, nil
	}
	in.sess = sess
	return sess, nil
}

// Serve accepts plain TCP clients on ln until the listener closes. Each
// accepted connection becomes one mux stream; per-connection tunnel
// failures (e.g. the egress going away) close that client and keep
// serving.
func (in *Ingress) Serve(ln net.Listener) error {
	in.mu.Lock()
	if in.closed || in.draining {
		in.mu.Unlock()
		ln.Close()
		return ErrSessionClosed
	}
	in.ln = ln
	in.mu.Unlock()
	for {
		client, err := ln.Accept()
		if err != nil {
			return err
		}
		go in.tunnel(client)
	}
}

// tunnel pipes one accepted client through the mux session.
func (in *Ingress) tunnel(client net.Conn) {
	in.mu.Lock()
	if in.closed || in.draining {
		in.mu.Unlock()
		client.Close()
		return
	}
	in.active++
	in.mu.Unlock()
	in.metrics.tunneled.Inc()
	in.metrics.active.Inc()
	defer func() {
		in.metrics.active.Dec()
		in.mu.Lock()
		in.active--
		if in.active == 0 {
			in.idle.Broadcast()
		}
		in.mu.Unlock()
	}()

	sess, err := in.session()
	if err != nil {
		client.Close()
		return
	}
	// The client's address travels as stream origin metadata: the egress
	// keys consistent-hash balancing on it, and trace timelines can name
	// the flow.
	origin := ""
	if ra := client.RemoteAddr(); ra != nil {
		origin = ra.String()
	}
	st, err := sess.OpenStreamOrigin(origin)
	if err != nil {
		client.Close()
		return
	}
	proxyPipe(client, st, in.metrics.bytesIn, in.metrics.bytesOut)
}

// ActiveConns returns the number of client connections currently
// tunneled.
func (in *Ingress) ActiveConns() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.active
}

// TunnelBytes returns the raw bytes piped through this gateway so far:
// in from the plain-TCP side into the tunnel, out from the tunnel back
// to the plain-TCP side.
func (in *Ingress) TunnelBytes() (inBytes, outBytes int64) {
	return in.metrics.bytesIn.Value(), in.metrics.bytesOut.Value()
}

// Stats snapshots the current tunnel connection's engine counters
// (including the Adapt decision state); ok is false when no session has
// been dialed yet.
func (in *Ingress) Stats() (s adoc.Stats, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sess == nil {
		return adoc.Stats{}, false
	}
	return in.sess.Stats(), true
}

// RegisterMetrics publishes the tunnel's adaptive decision state as
// callback gauges in reg (the default registry when nil): the current
// level (-1 before the first dial), the incompressible-pin countdown,
// the entropy-bypass run, and the per-level visible-bandwidth EWMAs.
// Re-registering (or registering a newer Ingress) replaces the
// callbacks.
func (in *Ingress) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	reg.GaugeFunc(MetricAdaptLevel, "Current compression level of the tunnel connection (-1 before the first dial).",
		func() float64 {
			s, ok := in.Stats()
			if !ok {
				return -1
			}
			return float64(s.Adapt.Level)
		})
	reg.GaugeFunc(MetricAdaptPinRemaining, "Packets the incompressible guard still pins to the minimum level.",
		func() float64 {
			s, _ := in.Stats()
			return float64(s.Adapt.PinRemaining)
		})
	reg.GaugeFunc(MetricAdaptBypassRun, "Current consecutive entropy-bypass run length.",
		func() float64 {
			s, _ := in.Stats()
			return float64(s.Adapt.BypassRun)
		})
	for l := 0; l <= int(adoc.MaxLevel); l++ {
		reg.GaugeFunc(MetricAdaptLevelBandwidth, "Visible-bandwidth EWMA per compression level, raw bytes per second.",
			func() float64 {
				s, ok := in.Stats()
				if !ok || l >= len(s.Adapt.BandwidthBps) {
					return 0
				}
				return s.Adapt.BandwidthBps[l]
			}, obs.Label{Name: "level", Value: strconv.Itoa(l)})
	}
}

// Drain shuts the ingress down gracefully: the listener closes, new
// clients are refused, and Drain waits for every tunneled connection to
// finish before closing the session. If ctx expires first the session is
// force-closed (failing the stragglers) and ctx's error is returned.
func (in *Ingress) Drain(ctx context.Context) error {
	in.mu.Lock()
	in.draining = true
	ln := in.ln
	in.ln = nil
	active := in.active
	in.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if l := in.cfg.Logger; l != nil {
		l.Info("adoc ingress draining", "active_conns", active)
	}
	adoc.Events(in.cfg.Metrics).Publish(adoc.ObsEvent{
		Type: adoc.EventDrain, Action: "begin",
		Detail: fmt.Sprintf("ingress, %d active conns", active),
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		in.mu.Lock()
		for in.active > 0 && !in.closed {
			in.idle.Wait()
		}
		in.mu.Unlock()
	}()
	select {
	case <-done:
		in.Close()
		if l := in.cfg.Logger; l != nil {
			l.Info("adoc ingress drained")
		}
		adoc.Events(in.cfg.Metrics).Publish(adoc.ObsEvent{
			Type: adoc.EventDrain, Action: "done", Detail: "ingress"})
		return nil
	case <-ctx.Done():
		in.Close() // fails remaining pipes, which unblocks the watcher
		if l := in.cfg.Logger; l != nil {
			l.Warn("adoc ingress drain timed out", "err", ctx.Err())
		}
		adoc.Events(in.cfg.Metrics).Publish(adoc.ObsEvent{
			Type: adoc.EventDrain, Action: "timeout", Detail: "ingress: " + ctx.Err().Error()})
		return ctx.Err()
	}
}

// Close stops the ingress: the listener and the tunnel session close;
// in-flight tunneled connections fail.
func (in *Ingress) Close() error {
	in.mu.Lock()
	in.closed = true
	ln, sess := in.ln, in.sess
	in.ln, in.sess = nil, nil
	in.idle.Broadcast()
	in.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if sess != nil {
		sess.Close()
	}
	return nil
}

// egBackend is one backend of an Egress, with its labeled metric series.
// healthy and active are guarded by the egress mutex; the metric series
// are safe to touch outside it.
type egBackend struct {
	addr    string
	healthy bool
	active  int

	healthyG  *obs.Gauge
	streams   *obs.Gauge
	dials     *obs.Counter
	dialFails *obs.Counter
}

// BackendStatus is one backend's externally visible state.
type BackendStatus struct {
	Addr string
	// Healthy is false after a failed health check or stream dial, until
	// a health check succeeds again.
	Healthy bool
	// ActiveStreams is the tunneled streams currently piped to this
	// backend.
	ActiveStreams int
}

// backendDialTimeout bounds one backend connect attempt, so a blackholed
// backend costs the stream seconds, not the OS connect timeout, before
// the next backend is tried.
const backendDialTimeout = 5 * time.Second

// Egress is the backend-facing gateway: it accepts AdOC connections from
// ingress gateways, runs a mux session on each, and dials a backend once
// per accepted stream, piping bytes both ways. With several backends
// configured it picks the least-loaded healthy one per stream, reroutes
// around dial failures, and (with StartHealthChecks) probes them in the
// background.
type Egress struct {
	cfg      Config
	reg      *obs.Registry
	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	mu       sync.Mutex
	idle     *sync.Cond // signaled when streams drains to zero
	backends []*egBackend
	conns    map[*Session]struct{}
	streams  int    // total piped streams, across backends
	balance  string // backend selection mode (BalanceLeastLoaded/BalanceHash)
	hcStop   chan struct{}
	draining bool
	closed   bool
}

// Balance modes for Egress backend selection.
const (
	// BalanceLeastLoaded picks the healthy backend with the fewest active
	// streams — the default.
	BalanceLeastLoaded = "least-loaded"
	// BalanceHash picks by rendezvous (highest-random-weight) hash of the
	// stream's origin metadata, so streams from the same client address
	// consistently land on the same backend while it stays healthy, and
	// backend set changes only remap the streams that hashed to the
	// removed backend. Streams without origin metadata fall back to
	// least-loaded.
	BalanceHash = "hash"
)

// SetBalance selects the backend balancing mode (BalanceLeastLoaded or
// BalanceHash); unknown modes select the default. Takes effect for
// future streams.
func (eg *Egress) SetBalance(mode string) {
	eg.mu.Lock()
	defer eg.mu.Unlock()
	if mode != BalanceHash {
		mode = BalanceLeastLoaded
	}
	eg.balance = mode
}

// NewEgress returns an egress gateway that connects tunneled streams to
// the plain TCP backend at backendAddr; use SetBackends for more than
// one. Per-backend metric series register in cfg.Metrics (the default
// registry when nil).
func NewEgress(backendAddr string, cfg Config) *Egress {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	eg := &Egress{cfg: cfg, reg: reg, conns: map[*Session]struct{}{},
		balance:  BalanceLeastLoaded,
		bytesIn:  tunnelBytesCounter(reg, "in"),
		bytesOut: tunnelBytesCounter(reg, "out"),
	}
	eg.idle = sync.NewCond(&eg.mu)
	eg.SetBackends([]string{backendAddr})
	return eg
}

// newBackend creates a backend record and its labeled metric series.
// Backends start healthy: traffic, not configuration, decides otherwise.
func (eg *Egress) newBackend(addr string) *egBackend {
	lbl := obs.Label{Name: "backend", Value: addr}
	b := &egBackend{
		addr:      addr,
		healthy:   true,
		healthyG:  eg.reg.Gauge(MetricBackendHealthy, "1 while the backend passes health checks, else 0.", lbl),
		streams:   eg.reg.Gauge(MetricBackendStreams, "Tunneled streams currently piped to the backend.", lbl),
		dials:     eg.reg.Counter(MetricBackendDials, "Backend dial attempts.", lbl),
		dialFails: eg.reg.Counter(MetricBackendDialFailures, "Failed backend dials.", lbl),
	}
	b.healthyG.Set(1)
	return b
}

// SetBackends replaces the backend list. Backends already present (by
// address) keep their health state, live-stream count, and metric
// history; removed backends have their labeled metric series
// unregistered. Established pipes are untouched — only the pick for
// future streams changes. Duplicate and empty addresses are dropped.
func (eg *Egress) SetBackends(addrs []string) {
	eg.mu.Lock()
	old := make(map[string]*egBackend, len(eg.backends))
	for _, b := range eg.backends {
		old[b.addr] = b
	}
	next := make([]*egBackend, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		if b, ok := old[a]; ok {
			next = append(next, b)
			delete(old, a)
			continue
		}
		next = append(next, eg.newBackend(a))
	}
	eg.backends = next
	eg.mu.Unlock()
	for addr := range old {
		lbl := obs.Label{Name: "backend", Value: addr}
		eg.reg.Unregister(MetricBackendHealthy, lbl)
		eg.reg.Unregister(MetricBackendStreams, lbl)
		eg.reg.Unregister(MetricBackendDials, lbl)
		eg.reg.Unregister(MetricBackendDialFailures, lbl)
	}
}

// SetBackend re-points the gateway at a single backend address,
// equivalent to SetBackends of one.
func (eg *Egress) SetBackend(addr string) {
	eg.SetBackends([]string{addr})
}

// Backends returns a snapshot of every backend's status, in
// configuration order.
func (eg *Egress) Backends() []BackendStatus {
	eg.mu.Lock()
	defer eg.mu.Unlock()
	out := make([]BackendStatus, len(eg.backends))
	for i, b := range eg.backends {
		out[i] = BackendStatus{Addr: b.addr, Healthy: b.healthy, ActiveStreams: b.active}
	}
	return out
}

// rendezvousScore is the highest-random-weight hash of one (key,
// backend) pair: each stream key ranks every backend, and the top-ranked
// untried healthy one wins. FNV-1a is plenty — the scores only need to
// be stable and well-spread, not adversary-proof.
func rendezvousScore(key, addr string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0})
	io.WriteString(h, addr)
	return h.Sum64()
}

// pick chooses the best healthy backend not yet tried — least-loaded by
// default, highest rendezvous score for key in hash mode — failing open
// to unhealthy ones (they may have recovered, and the dial loop finds
// out) once every healthy backend has been tried. nil when everything
// has been tried.
func (eg *Egress) pick(tried map[string]bool, key string) *egBackend {
	eg.mu.Lock()
	defer eg.mu.Unlock()
	hashed := eg.balance == BalanceHash && key != ""
	var best *egBackend
	var bestScore uint64
	better := func(b *egBackend) bool {
		if tried[b.addr] {
			return false
		}
		if best == nil {
			return true
		}
		if b.healthy != best.healthy {
			return b.healthy
		}
		if hashed {
			return rendezvousScore(key, b.addr) > bestScore
		}
		return b.active < best.active
	}
	for _, b := range eg.backends {
		if better(b) {
			best = b
			if hashed {
				bestScore = rendezvousScore(key, best.addr)
			}
		}
	}
	return best
}

// dialBackend connects one stream to a backend: the balance mode's
// choice first (keyed on the stream's origin metadata in hash mode),
// marking dial failures unhealthy and moving on, until a dial succeeds
// or every backend has been tried (ErrNoHealthyBackend). On success the
// stream is already counted against the backend; the caller must pair it
// with releaseBackend.
func (eg *Egress) dialBackend(key string) (net.Conn, *egBackend, error) {
	tried := map[string]bool{}
	for {
		b := eg.pick(tried, key)
		if b == nil {
			return nil, nil, ErrNoHealthyBackend
		}
		tried[b.addr] = true
		b.dials.Inc()
		conn, err := net.DialTimeout("tcp", b.addr, backendDialTimeout)
		if err != nil {
			b.dialFails.Inc()
			eg.mu.Lock()
			wasHealthy := b.healthy
			b.healthy = false
			eg.mu.Unlock()
			b.healthyG.Set(0)
			if wasHealthy {
				adoc.Events(eg.cfg.Metrics).Publish(adoc.ObsEvent{
					Type: adoc.EventBackend, Action: "unhealthy",
					Addr: b.addr, Cause: "dial", Detail: err.Error(),
				})
			}
			if l := eg.cfg.Logger; l != nil && wasHealthy {
				l.Warn("adoc backend unhealthy", "backend", b.addr, "cause", "dial", "err", err)
			}
			continue
		}
		eg.mu.Lock()
		b.active++
		eg.streams++
		eg.mu.Unlock()
		b.streams.Inc()
		return conn, b, nil
	}
}

// releaseBackend undoes dialBackend's accounting once the pipe finishes.
func (eg *Egress) releaseBackend(b *egBackend) {
	b.streams.Dec()
	eg.mu.Lock()
	b.active--
	eg.streams--
	if eg.streams == 0 {
		eg.idle.Broadcast()
	}
	eg.mu.Unlock()
}

// StartHealthChecks begins probing every backend with a TCP connect each
// interval (bounded by timeout): success marks it healthy, failure
// unhealthy. The loop stops when the egress closes; calling again while
// a loop runs is a no-op.
func (eg *Egress) StartHealthChecks(interval, timeout time.Duration) {
	eg.mu.Lock()
	if eg.hcStop != nil || eg.closed {
		eg.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	eg.hcStop = stop
	eg.mu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				eg.checkBackends(timeout)
			}
		}
	}()
}

// checkBackends probes each backend once and records the verdict.
func (eg *Egress) checkBackends(timeout time.Duration) {
	eg.mu.Lock()
	backends := append([]*egBackend(nil), eg.backends...)
	eg.mu.Unlock()
	for _, b := range backends {
		conn, err := net.DialTimeout("tcp", b.addr, timeout)
		if conn != nil {
			conn.Close()
		}
		healthy := err == nil
		eg.mu.Lock()
		// The backend may have been swapped out (SetBackends) since the
		// snapshot; a verdict for a removed backend must not touch its
		// unregistered series.
		present := false
		for _, cur := range eg.backends {
			if cur == b {
				present = true
				break
			}
		}
		changed := present && b.healthy != healthy
		if present {
			b.healthy = healthy
		}
		eg.mu.Unlock()
		if present {
			if healthy {
				b.healthyG.Set(1)
			} else {
				b.healthyG.Set(0)
			}
			if changed {
				action := "unhealthy"
				detail := ""
				if healthy {
					action = "healthy"
				} else if err != nil {
					detail = err.Error()
				}
				adoc.Events(eg.cfg.Metrics).Publish(adoc.ObsEvent{
					Type: adoc.EventBackend, Action: action,
					Addr: b.addr, Cause: "health-check", Detail: detail,
				})
			}
			if l := eg.cfg.Logger; l != nil && changed {
				if healthy {
					l.Info("adoc backend healthy", "backend", b.addr, "cause", "health-check")
				} else {
					l.Warn("adoc backend unhealthy", "backend", b.addr, "cause", "health-check", "err", err)
				}
			}
		}
	}
}

// Serve accepts ingress connections on ln until the listener closes.
// Each handshake runs on its connection's own goroutine (adocnet.Server),
// so a client that connects and stalls cannot hold up other tunnels;
// handshake failures drop just that client.
func (eg *Egress) Serve(ln *adocnet.Listener) error {
	srv := adocnet.NewServer(adocnet.Options{}, func(c *adocnet.Conn) { eg.ServeConn(c) })
	return srv.Serve(ln)
}

// ServeConn runs the egress side of one tunnel connection until its
// session ends, returning the session's terminal error. Exposed so
// deployments with their own listeners (TLS, unix sockets) can drive it
// directly.
func (eg *Egress) ServeConn(conn *adocnet.Conn) error {
	sess, err := Server(conn, eg.cfg)
	if err != nil {
		conn.Close()
		return err
	}
	conn.Inspect().SetKind("gateway-egress")
	eg.mu.Lock()
	if eg.closed {
		eg.mu.Unlock()
		sess.Close()
		return ErrSessionClosed
	}
	eg.conns[sess] = struct{}{}
	eg.mu.Unlock()
	defer func() {
		eg.mu.Lock()
		delete(eg.conns, sess)
		eg.mu.Unlock()
	}()
	for {
		st, err := sess.AcceptStream()
		if err != nil {
			return err
		}
		eg.mu.Lock()
		refuse := eg.draining || eg.closed
		eg.mu.Unlock()
		if refuse {
			st.Close()
			continue
		}
		go func() {
			backend, b, err := eg.dialBackend(st.Origin())
			if err != nil {
				// No backend reachable: refuse just this stream; the
				// tunnel and its other streams are fine.
				st.Close()
				return
			}
			defer eg.releaseBackend(b)
			// proxyPipe detects CloseWrite on the dynamic type, so the
			// TCP half-close works through the net.Conn interface.
			proxyPipe(backend, st, eg.bytesIn, eg.bytesOut)
		}()
	}
}

// TunnelBytes returns the raw bytes piped through this gateway so far:
// in from the plain-TCP (backend) side into the tunnel, out from the
// tunnel toward the backends.
func (eg *Egress) TunnelBytes() (inBytes, outBytes int64) {
	return eg.bytesIn.Value(), eg.bytesOut.Value()
}

// ActiveStreams returns the number of streams currently piped to
// backends.
func (eg *Egress) ActiveStreams() int {
	eg.mu.Lock()
	defer eg.mu.Unlock()
	return eg.streams
}

// Drain shuts the egress down gracefully: streams accepted from now on
// are refused, and Drain waits for every established pipe to finish
// before closing the sessions. If ctx expires first the sessions are
// force-closed (failing the stragglers) and ctx's error is returned.
// The caller owns the listener passed to Serve and should close it
// first.
func (eg *Egress) Drain(ctx context.Context) error {
	eg.mu.Lock()
	eg.draining = true
	streams := eg.streams
	eg.mu.Unlock()
	if l := eg.cfg.Logger; l != nil {
		l.Info("adoc egress draining", "active_streams", streams)
	}
	adoc.Events(eg.cfg.Metrics).Publish(adoc.ObsEvent{
		Type: adoc.EventDrain, Action: "begin",
		Detail: fmt.Sprintf("egress, %d active streams", streams),
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		eg.mu.Lock()
		for eg.streams > 0 && !eg.closed {
			eg.idle.Wait()
		}
		eg.mu.Unlock()
	}()
	select {
	case <-done:
		eg.Close()
		if l := eg.cfg.Logger; l != nil {
			l.Info("adoc egress drained")
		}
		adoc.Events(eg.cfg.Metrics).Publish(adoc.ObsEvent{
			Type: adoc.EventDrain, Action: "done", Detail: "egress"})
		return nil
	case <-ctx.Done():
		eg.Close() // fails remaining pipes, which unblocks the watcher
		if l := eg.cfg.Logger; l != nil {
			l.Warn("adoc egress drain timed out", "err", ctx.Err())
		}
		adoc.Events(eg.cfg.Metrics).Publish(adoc.ObsEvent{
			Type: adoc.EventDrain, Action: "timeout", Detail: "egress: " + ctx.Err().Error()})
		return ctx.Err()
	}
}

// Close stops the egress: the health-check loop stops and every live
// session closes, failing its streams. The caller owns the listener
// passed to Serve.
func (eg *Egress) Close() error {
	eg.mu.Lock()
	if eg.closed {
		eg.mu.Unlock()
		return nil
	}
	eg.closed = true
	stop := eg.hcStop
	eg.hcStop = nil
	sessions := make([]*Session, 0, len(eg.conns))
	for s := range eg.conns {
		sessions = append(sessions, s)
	}
	eg.idle.Broadcast()
	eg.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	for _, s := range sessions {
		s.Close()
	}
	return nil
}
