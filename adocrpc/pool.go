package adocrpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"adoc"
	"adoc/adocmux"
	"adoc/adocnet"
)

// Pool defaults.
const (
	// DefaultMaxSessions caps the negotiated connections a Pool keeps to
	// its target. A handful of sessions is enough to spread compression
	// across engines while keeping each adaptive controller warm; one
	// session already carries any number of concurrent calls.
	DefaultMaxSessions = 4
	// DefaultDialTimeout bounds one session dial (connect + handshake).
	DefaultDialTimeout = 10 * time.Second
)

// PoolConfig configures a client Pool.
type PoolConfig struct {
	// Dial opens one raw connection to the target (required). The pool
	// runs the adocnet handshake and the mux session protocol on top, so
	// Dial returns a plain net.Conn: real TCP, a netsim link, anything.
	Dial func(ctx context.Context) (net.Conn, error)
	// MaxSessions caps live sessions (default DefaultMaxSessions).
	MaxSessions int
	// DialTimeout bounds one dial attempt (default DefaultDialTimeout).
	// Dials run on their own clock, not the calling context's: a
	// cancelled caller abandons the dial, but the session it started
	// still completes and serves later calls.
	DialTimeout time.Duration
	// Options configures this endpoint's side of the handshake; nil means
	// adocmux.TransportOptions() — the full adaptive configuration tuned
	// for mux batches. The peer must negotiate the mux capability.
	Options *adocnet.Options
	// Mux tunes the stream sessions (zero value = adocmux defaults).
	Mux adocmux.Config
	// EnableDelta turns on response delta encoding: the pool caches each
	// method's newest successful response section, announces it with every
	// request, and a delta-aware server then ships only what changed since
	// — often a few bytes for slowly-changing responses. Requires a server
	// built with the extension: against an older server the first call
	// fails loudly ("frame ... exceeds limit") instead of desynchronizing,
	// so keep this off until both ends are upgraded.
	EnableDelta bool
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.Options == nil {
		o := adocmux.TransportOptions()
		c.Options = &o
	}
	return c
}

// Pool is a client-side session pool for one target: calls pick the
// least-loaded live session, sessions are dialed lazily up to
// MaxSessions, dead sessions are pruned and redialed on demand, and
// Close drains in-flight calls before closing anything. All methods are
// safe for concurrent use.
type Pool struct {
	cfg     PoolConfig
	metrics poolMetrics

	mu       sync.Mutex
	drained  *sync.Cond // signaled when inflight drops to 0 while closing
	sessions []*poolSession
	inflight int
	closed   bool
	retired  adoc.Stats // counters of sessions that died or closed

	// Delta extension state: the newest successful response section per
	// method, announced as the delta base on subsequent calls. Shared
	// across the pool's sessions — the server's cache is server-wide too.
	dmu    sync.Mutex
	dcache map[string]cachedSection
}

// poolSession is one pool slot. It exists from the moment the dial is
// scheduled, so concurrent callers can pick (and wait on) a session that
// is still connecting instead of racing to over-dial the cap.
type poolSession struct {
	inflight int  // guarded by Pool.mu
	folded   bool // counters folded into Pool.retired (guarded by Pool.mu)

	ready chan struct{} // closed when the dial finishes
	sess  *adocmux.Session
	err   error
}

// NewPool returns a pool over cfg.Dial. No connection is opened until
// the first call.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("adocrpc: PoolConfig.Dial is required")
	}
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, metrics: newPoolMetrics(cfg.Options.Metrics)}
	p.drained = sync.NewCond(&p.mu)
	if cfg.EnableDelta {
		p.dcache = map[string]cachedSection{}
	}
	return p, nil
}

// DialPool returns a pool whose sessions connect to addr over the named
// network (the net.Dial way).
func DialPool(network, addr string, cfg PoolConfig) (*Pool, error) {
	cfg.Dial = func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	return NewPool(cfg)
}

// Call executes method(args) on the pool's target and returns the
// results. The context propagates fully: its deadline becomes the call
// stream's deadline, and cancellation closes the call's stream — both
// endpoints reclaim the stream entry and its flow-control credit; the
// session, and every other call on it, keeps running. Failures the
// server reported over the wire come back as *RemoteError; transport
// failures surface as the underlying session error. Calls are never
// retried automatically — a call that died with its session may or may
// not have executed, and only the caller knows if it is idempotent.
func (p *Pool) Call(ctx context.Context, method string, args [][]byte) (results [][]byte, err error) {
	start := time.Now()
	defer func() { p.metrics.observeCall(err, time.Since(start).Seconds()) }()
	return p.call(ctx, method, args)
}

func (p *Pool) call(ctx context.Context, method string, args [][]byte) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.release(ps)

	st, err := ps.sess.OpenStream()
	if err != nil {
		// The session is dead (or exhausted); the next acquire prunes and
		// redials. This call fails rather than guessing about retry
		// safety.
		return nil, err
	}
	defer st.Close()

	// Call-level span: the whole round trip, keyed by the call's stream ID
	// so /debug/trace can line it up with the per-stream delivery spans.
	// Calls aren't sampled — the stage histogram wants every round trip —
	// so the span carries no trace ID (0 marks "untraced" in the ring).
	if tr := ps.sess.Conn().FlowTracer(); tr.Enabled() {
		t0 := tr.Now()
		id := st.ID()
		defer func() {
			tr.Record(adoc.TraceContext{Sampled: true}, id, adoc.StageCall, t0, tr.Now().Sub(t0), 0, 0)
		}()
	}

	// Cancellation hook: when the context is cancelled or its deadline
	// passes, expiring the stream's deadlines wakes its pending reads and
	// writes (a time in the past arms no timer), and closing the stream
	// releases its window credit on both ends and retires it from both
	// stream tables — cancel cleans up after itself instead of leaking a
	// stream per abandoned call. Uncancellable contexts
	// (context.Background and friends) register nothing. A hook that
	// already started is waited for, so none outlives the call.
	if ctx.Done() != nil {
		hookDone := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(hookDone)
			st.SetDeadline(time.Unix(1, 0))
			st.Close()
		})
		defer func() {
			if !stop() {
				<-hookDone
			}
		}()
	}

	if !p.cfg.EnableDelta {
		if err := writeRequest(st, method, args); err != nil {
			return nil, ctxOr(ctx, err)
		}
		if err := st.CloseWrite(); err != nil {
			return nil, ctxOr(ctx, err)
		}
		results, err := readResponse(st)
		if err != nil {
			return nil, ctxOr(ctx, err)
		}
		// A response can win the race against the cancellation hook; the
		// call still failed from the caller's side.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return results, nil
	}

	base := p.deltaBase(method)
	if err := writeRequestDelta(st, method, args, base.seq); err != nil {
		return nil, ctxOr(ctx, err)
	}
	if err := st.CloseWrite(); err != nil {
		return nil, ctxOr(ctx, err)
	}
	d, err := readResponseDelta(st)
	if err != nil {
		return nil, ctxOr(ctx, err)
	}
	section := d.payload
	if d.dflags&dflagDelta != 0 {
		// The server may only delta against the base this very request
		// announced; anything else is a protocol violation.
		if base.seq == 0 || d.baseSeq != base.seq {
			return nil, fmt.Errorf("adocrpc: response delta against unannounced base %d", d.baseSeq)
		}
		if section, err = deltaApply(d.payload, base.section); err != nil {
			return nil, err
		}
		p.metrics.callDeltas.Inc()
	}
	if d.code != CodeOK {
		return nil, ctxOr(ctx, &RemoteError{Code: d.code, Msg: d.msg})
	}
	results, err := parseResultsSection(section)
	if err != nil {
		return nil, ctxOr(ctx, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.seq != 0 {
		// Cache a private copy: the returned results alias section, and a
		// caller mutating them must not corrupt future delta bases.
		p.storeDeltaBase(method, d.seq, append([]byte(nil), section...))
	}
	return results, nil
}

// deltaBase snapshots the newest cached response section for method
// (zero seq when none).
func (p *Pool) deltaBase(method string) cachedSection {
	p.dmu.Lock()
	defer p.dmu.Unlock()
	return p.dcache[method]
}

func (p *Pool) storeDeltaBase(method string, seq uint64, section []byte) {
	p.dmu.Lock()
	p.dcache[method] = cachedSection{seq: seq, section: section}
	p.dmu.Unlock()
}

// ctxOr prefers the context's error: a stream whose deadlines our own
// cancellation hook expired, or which it closed, should report
// context.Canceled (or DeadlineExceeded), not the induced stream error.
// The hook runs only once the context is done, so ctx.Err() is set by
// the time any induced error surfaces.
func ctxOr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// acquire picks the least-loaded live session, lazily dialing a new one
// while the pool is below MaxSessions and every live session is busy.
// It health-checks on the way: sessions that died since their last use
// are dropped here, which is what makes the next call redial.
func (p *Pool) acquire(ctx context.Context) (*poolSession, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}

	// Health check: drop sessions whose dial failed or whose connection
	// died, folding their final counters into the retired aggregate so
	// Stats keeps counting the bytes they moved. In-flight calls on a
	// dying session fail on their own streams; dropping the entry here
	// only stops new calls from landing on it.
	live := p.sessions[:0]
	pruned := 0
	for _, ps := range p.sessions {
		if ps.dead() {
			p.foldSlot(ps)
			pruned++
			continue
		}
		live = append(live, ps)
	}
	p.sessions = live
	if pruned > 0 {
		p.metrics.sessions.Add(-int64(pruned))
	}

	var pick *poolSession
	for _, ps := range p.sessions {
		if pick == nil || ps.inflight < pick.inflight {
			pick = ps
		}
	}
	if pick == nil || (pick.inflight > 0 && len(p.sessions) < p.cfg.MaxSessions) {
		ps := &poolSession{ready: make(chan struct{})}
		p.sessions = append(p.sessions, ps)
		p.metrics.sessions.Inc()
		go p.dial(ps)
		pick = ps
	}
	pick.inflight++
	p.inflight++
	p.mu.Unlock()

	select {
	case <-pick.ready:
	case <-ctx.Done():
		p.release(pick)
		return nil, ctx.Err()
	}
	if pick.err != nil {
		p.release(pick)
		return nil, pick.err
	}
	return pick, nil
}

// dead reports whether the slot can no longer serve calls. Safe to call
// with Pool.mu held (it never blocks).
func (ps *poolSession) dead() bool {
	select {
	case <-ps.ready:
		return ps.err != nil || ps.sess.IsClosed()
	default:
		return false // still dialing
	}
}

func (p *Pool) release(ps *poolSession) {
	p.mu.Lock()
	ps.inflight--
	p.inflight--
	if p.closed && p.inflight == 0 {
		p.drained.Broadcast()
	}
	p.mu.Unlock()
}

// dial connects one session: raw dial, adocnet handshake, mux session.
// It runs on its own timeout rather than any caller's context, so an
// impatient caller cannot strand the other callers waiting on the slot.
func (p *Pool) dial(ps *poolSession) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.DialTimeout)
	defer cancel()

	sess, err := func() (*adocmux.Session, error) {
		raw, err := p.cfg.Dial(ctx)
		if err != nil {
			return nil, err
		}
		conn, err := adocnet.Handshake(raw, *p.cfg.Options)
		if err != nil {
			raw.Close()
			return nil, err
		}
		sess, err := adocmux.Client(conn, p.cfg.Mux)
		if err != nil {
			conn.Close()
			return nil, err
		}
		conn.Inspect().SetKind("rpc-client")
		return sess, nil
	}()
	ps.sess, ps.err = sess, err
	close(ps.ready)

	// The pool may have closed while this dial was in flight with nobody
	// waiting (the creator's call cancelled): Close skipped the
	// not-yet-ready slot, so tidy up here — but only if no caller holds
	// the slot. A held slot means Close is still draining that call
	// (Close cannot pass its inflight wait before the holder releases),
	// and Close will close the session itself afterwards.
	p.mu.Lock()
	abandoned := p.closed && ps.inflight == 0
	p.mu.Unlock()
	if abandoned && sess != nil {
		sess.Close()
		p.mu.Lock()
		p.foldSlot(ps)
		p.mu.Unlock()
	}
}

// Close drains the pool: new calls fail with ErrPoolClosed immediately,
// in-flight calls run to completion, then every session closes (which
// flushes their queued frames). Callers that want a bounded shutdown
// cancel their own calls' contexts.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for p.inflight > 0 {
		p.drained.Wait()
	}
	sessions := append([]*poolSession(nil), p.sessions...)
	p.sessions = nil
	p.mu.Unlock()
	p.metrics.sessions.Add(-int64(len(sessions)))

	for _, ps := range sessions {
		select {
		case <-ps.ready:
			if ps.sess != nil {
				ps.sess.Close()
				p.mu.Lock()
				p.foldSlot(ps)
				p.mu.Unlock()
			}
		default:
			// Still dialing with nobody waiting; the dial goroutine sees
			// closed and cleans up when it lands.
		}
	}
	return nil
}

// NumSessions returns the number of pool slots currently held (live or
// still dialing).
func (p *Pool) NumSessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// InFlight returns the number of calls currently executing.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Negotiated returns the configuration one live session agreed with the
// peer (false when no session is connected). All sessions of a pool
// negotiate against the same peer options, so one is representative.
func (p *Pool) Negotiated() (adocnet.Negotiated, bool) {
	for _, ps := range p.snapshotSessions() {
		if !ps.dead() {
			select {
			case <-ps.ready:
				return ps.sess.Conn().Negotiated(), true
			default:
			}
		}
	}
	return adocnet.Negotiated{}, false
}

// Stats sums the engine counters across the pool's whole lifetime: live
// sessions snapshotted now plus every session that died or closed (their
// final counters fold into a retained aggregate, as adocnet.Server does
// for retired connections). The non-additive Adapt snapshot is left
// zero.
func (p *Pool) Stats() adoc.Stats {
	p.mu.Lock()
	agg := p.retired
	// Detach the shared LevelCount backing array before accumulating into
	// the copy (Accumulate reallocates on merge, but a poll with zero
	// live sessions would otherwise hand the caller the retained slice).
	agg.Controller.LevelCount = append([]int64(nil), p.retired.Controller.LevelCount...)
	p.mu.Unlock()
	for _, ps := range p.snapshotSessions() {
		select {
		case <-ps.ready:
		default:
			continue // still dialing: no engine yet
		}
		p.mu.Lock()
		folded := ps.folded
		p.mu.Unlock()
		if folded || ps.sess == nil {
			continue
		}
		// Dead-but-unpruned slots still count: their engine counters stay
		// readable, and they move to the retired aggregate when pruned.
		agg.Accumulate(ps.sess.Conn().CounterStats())
	}
	return agg
}

// foldSlot accumulates one slot's final counters into the retired
// aggregate. Called with p.mu held, at most once per slot.
func (p *Pool) foldSlot(ps *poolSession) {
	if ps.folded || ps.sess == nil {
		return
	}
	ps.folded = true
	p.retired.Accumulate(ps.sess.Conn().CounterStats())
}

func (p *Pool) snapshotSessions() []*poolSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*poolSession(nil), p.sessions...)
}
