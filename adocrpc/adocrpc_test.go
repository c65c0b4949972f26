package adocrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adoc/adocmux"
	"adoc/adocnet"
	"adoc/internal/testutil"
	"adoc/internal/wire"
)

// compressible returns n bytes of repetitive-but-not-trivial data.
func compressible(n int, seed int64) []byte {
	line := fmt.Sprintf("call %d ships its request over a pooled adaptive compressed session\n", seed)
	b := []byte(strings.Repeat(line, n/len(line)+1))[:n]
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+128 <= len(b); i += 8 * 1024 {
		rng.Read(b[i : i+128])
	}
	return b
}

// rig is one server plus one pool talking to it over TCP loopback.
type rig struct {
	srv  *Server
	pool *Pool
	ln   net.Listener
}

func newRig(t *testing.T, scfg ServerConfig, pcfg PoolConfig) *rig {
	t.Helper()
	srv := NewServer(scfg)
	srv.Register("echo", func(_ context.Context, args [][]byte) ([][]byte, error) {
		return args, nil
	})
	srv.Register("fail", func(_ context.Context, _ [][]byte) ([][]byte, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	pool, err := DialPool("tcp", ln.Addr().String(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pool.Close()
		srv.Close()
	})
	return &rig{srv: srv, pool: pool, ln: ln}
}

func TestCallRoundtrip(t *testing.T) {
	r := newRig(t, ServerConfig{}, PoolConfig{})
	args := [][]byte{compressible(300*1024, 1), []byte("second"), nil}
	res, err := r.pool.Call(context.Background(), "echo", args)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || !bytes.Equal(res[0], args[0]) || string(res[1]) != "second" || len(res[2]) != 0 {
		t.Fatal("echo mismatch")
	}

	// Zero args, zero results round-trip too.
	res, err = r.pool.Call(context.Background(), "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("echo(nil) = %d results", len(res))
	}
}

func TestTypedWireErrors(t *testing.T) {
	r := newRig(t, ServerConfig{}, PoolConfig{})

	_, err := r.pool.Call(context.Background(), "no-such-method", nil)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeUnknownMethod {
		t.Fatalf("unknown method error not a typed RemoteError: %v", err)
	}

	_, err = r.pool.Call(context.Background(), "fail", nil)
	if !errors.As(err, &re) || re.Code != CodeApp || !strings.Contains(re.Msg, "deliberate failure") {
		t.Fatalf("handler failure: err = %v, want CodeApp RemoteError", err)
	}
	if errors.Is(err, ErrUnknownMethod) {
		t.Fatal("CodeApp error matched ErrUnknownMethod")
	}
}

// TestPoolAcceptance is the PR's acceptance criterion: 64 concurrent
// in-flight calls over a pool capped at 4 sessions complete
// byte-identically at Parallelism 1 and 4; cancelling half of them
// mid-flight leaks no streams (every session's stream table is empty
// after the drain) and leaves the remaining calls correct.
func TestPoolAcceptance(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			t.Parallel()
			opts := adocmux.TransportOptions()
			opts.Parallelism = par

			const calls = 64
			arrived := make(chan struct{}, calls)
			release := make(chan struct{})
			r := newRig(t,
				ServerConfig{Options: &opts, MaxConcurrent: calls},
				PoolConfig{Options: &opts, MaxSessions: 4},
			)
			r.srv.Register("gate-echo", func(_ context.Context, args [][]byte) ([][]byte, error) {
				arrived <- struct{}{}
				<-release
				return args, nil
			})

			type result struct {
				i   int
				res [][]byte
				err error
			}
			ctxs := make([]context.CancelFunc, calls)
			results := make(chan result, calls)
			var wg sync.WaitGroup
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				ctxs[i] = cancel
				wg.Add(1)
				go func(i int, ctx context.Context) {
					defer wg.Done()
					payload := compressible(96*1024, int64(i))
					res, err := r.pool.Call(ctx, "gate-echo", [][]byte{payload})
					results <- result{i, res, err}
				}(i, ctx)
			}

			// All 64 calls are in flight (their handlers reached the gate)
			// before anything is cancelled or released.
			for i := 0; i < calls; i++ {
				select {
				case <-arrived:
				case <-time.After(30 * time.Second):
					t.Fatalf("only %d/%d calls reached the server", i, calls)
				}
			}
			if n := r.pool.NumSessions(); n > 4 {
				t.Fatalf("pool opened %d sessions, cap is 4", n)
			}
			if n := r.pool.InFlight(); n != calls {
				t.Fatalf("pool reports %d in-flight calls, want %d", n, calls)
			}

			// Cancel the even-numbered half mid-flight, then release the
			// gate for everyone.
			for i := 0; i < calls; i += 2 {
				ctxs[i]()
			}
			close(release)
			wg.Wait()
			close(results)
			for res := range results {
				if res.i%2 == 0 {
					if !errors.Is(res.err, context.Canceled) {
						t.Errorf("cancelled call %d: err = %v, want context.Canceled", res.i, res.err)
					}
					continue
				}
				if res.err != nil {
					t.Errorf("surviving call %d failed: %v", res.i, res.err)
					continue
				}
				want := compressible(96*1024, int64(res.i))
				if len(res.res) != 1 || !bytes.Equal(res.res[0], want) {
					t.Errorf("surviving call %d: echoed bytes differ", res.i)
				}
			}
			for i := 1; i < calls; i += 2 {
				ctxs[i]()
			}

			// No leaked streams: every session's stream table — client and
			// server side — drains to empty.
			waitForDrain(t, r)
		})
	}
}

// waitForDrain polls until every live session on both ends reports an
// empty stream table.
func waitForDrain(t *testing.T, r *rig) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		total := 0
		for _, ps := range r.pool.snapshotSessions() {
			if !ps.dead() {
				select {
				case <-ps.ready:
					total += ps.sess.NumStreams()
				default:
				}
			}
		}
		r.srv.mu.Lock()
		for sess := range r.srv.sessions {
			total += sess.NumStreams()
		}
		r.srv.mu.Unlock()
		if total == 0 && r.pool.InFlight() == 0 && r.srv.InFlight() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams leaked after drain: %d table entries remain", total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDeadlinePropagates(t *testing.T) {
	r := newRig(t, ServerConfig{}, PoolConfig{})
	r.srv.Register("sleep", func(ctx context.Context, _ [][]byte) ([][]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.pool.Call(ctx, "sleep", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("deadline call took far longer than its deadline")
	}
	// The session is not poisoned: a normal call still works.
	if _, err := r.pool.Call(context.Background(), "echo", [][]byte{[]byte("ok")}); err != nil {
		t.Fatalf("call after a timed-out call: %v", err)
	}
}

func TestPoolRedialsAfterSessionDeath(t *testing.T) {
	r := newRig(t, ServerConfig{}, PoolConfig{MaxSessions: 1})
	if _, err := r.pool.Call(context.Background(), "echo", [][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	// Kill the live session out from under the pool (peer crash).
	for _, ps := range r.pool.snapshotSessions() {
		<-ps.ready
		ps.sess.Close()
	}
	// The pool health-checks on the next call and redials.
	res, err := r.pool.Call(context.Background(), "echo", [][]byte{[]byte("b")})
	if err != nil {
		t.Fatalf("call after session death: %v", err)
	}
	if string(res[0]) != "b" {
		t.Fatal("redialed call corrupted")
	}
	if n := r.pool.NumSessions(); n != 1 {
		t.Fatalf("pool holds %d sessions after redial, want 1", n)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	entered := make(chan struct{}, 1)
	// MaxSessions 1: the call issued during the drain must ride the
	// existing session (a fresh dial would just hit the closed listener).
	r := newRig(t, ServerConfig{}, PoolConfig{MaxSessions: 1})
	// Registered after newRig so it runs BEFORE pool.Close in the LIFO
	// cleanup order: a failing assertion must not leave the gated call
	// wedging the pool drain.
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	r.srv.Register("slow", func(_ context.Context, args [][]byte) ([][]byte, error) {
		entered <- struct{}{}
		<-release
		return args, nil
	})

	slowRes := make(chan error, 1)
	go func() {
		_, err := r.pool.Call(context.Background(), "slow", [][]byte{[]byte("drain me")})
		slowRes <- err
	}()
	<-entered

	shutdownRes := make(chan error, 1)
	go func() {
		shutdownRes <- r.srv.Shutdown(context.Background())
	}()
	// Draining: a new call over the existing session gets the typed
	// shutdown refusal. (Poll briefly: the drain flag flips concurrently
	// with the Shutdown goroutine starting.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := r.pool.Call(context.Background(), "echo", nil)
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call during drain: err = %v, want ErrShuttingDown", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight call is not cut off: it completes once released, and
	// only then does Shutdown return.
	select {
	case err := <-shutdownRes:
		t.Fatalf("Shutdown returned (%v) while a call was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-slowRes; err != nil {
		t.Fatalf("in-flight call failed during graceful shutdown: %v", err)
	}
	if err := <-shutdownRes; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestShutdownForceClosesOnExpiredContext(t *testing.T) {
	wedged := make(chan struct{}, 1)
	r := newRig(t, ServerConfig{}, PoolConfig{})
	r.srv.Register("wedge", func(ctx context.Context, _ [][]byte) ([][]byte, error) {
		wedged <- struct{}{}
		<-ctx.Done() // released only by the force-close
		return nil, ctx.Err()
	})
	callRes := make(chan error, 1)
	go func() {
		_, err := r.pool.Call(context.Background(), "wedge", nil)
		callRes <- err
	}()
	<-wedged

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := r.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown: err = %v, want context.DeadlineExceeded", err)
	}
	select {
	case err := <-callRes:
		if err == nil {
			t.Fatal("wedged call reported success after a force-close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged call not released by forced shutdown")
	}
}

func TestPoolCloseDrainsThenRefuses(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	entered := make(chan struct{}, 1)
	r := newRig(t, ServerConfig{}, PoolConfig{})
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	r.srv.Register("slow", func(_ context.Context, args [][]byte) ([][]byte, error) {
		entered <- struct{}{}
		<-release
		return args, nil
	})
	callRes := make(chan error, 1)
	go func() {
		_, err := r.pool.Call(context.Background(), "slow", [][]byte{[]byte("x")})
		callRes <- err
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		r.pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("pool Close returned while a call was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-callRes; err != nil {
		t.Fatalf("in-flight call failed during pool drain: %v", err)
	}
	<-closed
	if _, err := r.pool.Call(context.Background(), "echo", nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call on closed pool: err = %v, want ErrPoolClosed", err)
	}
}

// TestNonMuxPeerRejected: a pool pointed at a peer that did not
// negotiate the mux capability fails loudly instead of hanging.
func TestNonMuxPeerRejected(t *testing.T) {
	ln, err := adocnet.Listen("tcp", "127.0.0.1:0", adocnet.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	// The peer looks like a build that predates the mux capability to
	// both handshakes.
	pool, err := NewPool(PoolConfig{DialTimeout: 5 * time.Second, Dial: func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return testutil.ClearHandshakeBits(c, wire.HandshakeFlagMux, 0), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Call(context.Background(), "echo", nil); !errors.Is(err, adocmux.ErrMuxNotNegotiated) {
		t.Fatalf("call to non-mux peer: err = %v, want ErrMuxNotNegotiated", err)
	}
}

// TestRequestTimeoutFreesWorkerSlot: a client that opens a stream and
// never completes its request must not pin a MaxConcurrent slot forever
// — the server's request-read deadline reclaims it, and other clients'
// calls keep working.
func TestRequestTimeoutFreesWorkerSlot(t *testing.T) {
	r := newRig(t,
		ServerConfig{MaxConcurrent: 1, RequestTimeout: 300 * time.Millisecond},
		PoolConfig{},
	)

	// A raw mux client that opens a stream and sends nothing: with
	// MaxConcurrent 1, its silent stream holds the only worker slot.
	opts := adocmux.TransportOptions()
	conn, err := adocnet.Dial("tcp", r.ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := adocmux.Client(conn, adocmux.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	silent, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// Give the silent stream time to be accepted and grab the slot, then
	// verify a real call still completes once the timeout reclaims it.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := r.pool.Call(ctx, "echo", [][]byte{[]byte("alive")}); err != nil {
		t.Fatalf("call starved behind a silent stream: %v", err)
	}
}

func TestCallOnCancelledContext(t *testing.T) {
	r := newRig(t, ServerConfig{}, PoolConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.pool.Call(ctx, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
