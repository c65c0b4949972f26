package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"adoc/adocrpc"
	"adoc/internal/datagen"
	"adoc/internal/netsim"
)

// rpcLoadPoint is one row of the RPC load experiment: a burst of
// concurrent echo calls through an adocrpc pool over one simulated
// network.
type rpcLoadPoint struct {
	prof        netsim.Profile
	concurrency int
	calls       int  // total calls across all workers
	payload     int  // request payload bytes (response echoes it back)
	delta       bool // response delta encoding
}

// rpcLoadPoints scales the workload to each network: enough traffic for
// the adaptive pipeline to engage, small enough that the WAN rows finish
// in seconds. maxPayload (from Config.MaxSize) caps the per-call
// payload for CI-speed runs. Each network runs twice — plain, then with
// response deltas — so the report carries the delta encoding's win over
// the same traffic.
func rpcLoadPoints(seed int64, maxPayload int64) []rpcLoadPoint {
	capped := func(n int) int {
		if maxPayload > 0 && int64(n) > maxPayload {
			return int(maxPayload)
		}
		return n
	}
	// Payloads are sized so concurrent calls coalesce into mux batches of
	// several 200 KB adaptation buffers — small bursty payloads never
	// give the per-message controller a queue to react to.
	// The WAN rows run 64 calls too: at concurrency 16, the first burst
	// necessarily ships plain (no delta base exists yet), and a 32-call
	// run would be half cold start — misrepresenting the steady state
	// both modes reach.
	return []rpcLoadPoint{
		{prof: netsim.Quiet(netsim.LAN100(seed)), concurrency: 16, calls: 64, payload: capped(256 << 10)},
		{prof: netsim.Quiet(netsim.Renater(seed)), concurrency: 16, calls: 64, payload: capped(128 << 10)},
		{prof: netsim.Quiet(netsim.LAN100(seed)), concurrency: 16, calls: 64, payload: capped(256 << 10), delta: true},
		{prof: netsim.Quiet(netsim.Renater(seed)), concurrency: 16, calls: 64, payload: capped(128 << 10), delta: true},
	}
}

// RPCLoad runs the adocrpc stack — client pool, mux sessions, server
// dispatch — under concurrent echo load over the paper's simulated
// LAN and WAN, reporting end-to-end request throughput, per-call p50
// latency, and the wire bytes the shared compression saved. It always
// runs live (the scenario IS the real engine; there is no model of it).
func RPCLoad(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "rpcload",
		Title: "Concurrent RPC load through adocrpc (pooled compressed sessions)",
		Columns: []string{"network", "mode", "calls", "conc", "payload", "elapsed(s)",
			"req/s", "payload MB/s", "p50(ms)", "wire/raw"},
	}
	for _, pt := range rpcLoadPoints(cfg.Seed, cfg.MaxSize) {
		res, err := runRPCLoad(pt, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("rpcload %s: %w", pt.prof.Name, err)
		}
		mode := "plain"
		if pt.delta {
			mode = "delta"
		}
		t.AddRow(pt.prof.Name, mode,
			fmt.Sprintf("%d", pt.calls),
			fmt.Sprintf("%d", pt.concurrency),
			fmt.Sprintf("%d", pt.payload),
			fmt.Sprintf("%.3f", res.ElapsedSeconds),
			fmt.Sprintf("%.1f", float64(pt.calls)/res.ElapsedSeconds),
			fmt.Sprintf("%.2f", res.ThroughputBps/1e6),
			fmt.Sprintf("%.1f", res.P50CallSeconds*1e3),
			fmt.Sprintf("%.2f", float64(res.WireBytes)/float64(res.Bytes)),
		)
		t.AddResult(res)
	}
	t.AddNote("each call is one mux stream of a pooled session (max %d per target); all calls share the pool's adaptive controllers", adocrpc.DefaultMaxSessions)
	t.AddNote("wire/raw below 1.0 means the shared compression pipeline engaged on the aggregate RPC traffic")
	t.AddNote("delta rows ship repeated responses as deltas against the client's cache")
	return t, nil
}

// runRPCLoad stands the full stack up over one simulated network and
// fires the burst.
func runRPCLoad(pt rpcLoadPoint, seed int64) (Result, error) {
	nw := netsim.NewNetwork(pt.prof)
	ln, err := nw.Listen("rpc-server")
	if err != nil {
		return Result{}, err
	}
	srv := adocrpc.NewServer(adocrpc.ServerConfig{MaxConcurrent: pt.concurrency})
	srv.Register("echo", func(_ context.Context, args [][]byte) ([][]byte, error) {
		return args, nil
	})
	go srv.Serve(ln)
	defer srv.Close()

	pool, err := adocrpc.NewPool(adocrpc.PoolConfig{
		Dial:        func(context.Context) (net.Conn, error) { return nw.Dial("rpc-server") },
		EnableDelta: pt.delta,
	})
	if err != nil {
		return Result{}, err
	}
	defer pool.Close()

	payload := datagen.ASCII(pt.payload, seed)
	var wg sync.WaitGroup
	errs := make(chan error, pt.concurrency)
	latencies := make(chan time.Duration, pt.calls)
	// Pre-filled and buffered: if every worker bails out on an error, the
	// run must still unwind and report it, not wedge feeding a queue
	// nobody drains.
	work := make(chan int, pt.calls)
	for i := 0; i < pt.calls; i++ {
		work <- i
	}
	close(work)
	start := time.Now()
	for w := 0; w < pt.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				res, err := pool.Call(context.Background(), "echo", [][]byte{payload})
				if err != nil {
					errs <- err
					return
				}
				latencies <- time.Since(t0)
				if len(res) != 1 || len(res[0]) != len(payload) {
					errs <- fmt.Errorf("echo returned %d results", len(res))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return Result{}, err
	}
	close(latencies)
	var lats []time.Duration
	for d := range latencies {
		lats = append(lats, d)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50 float64
	if len(lats) > 0 {
		p50 = lats[len(lats)/2].Seconds()
	}

	stats := pool.Stats()
	neg := ""
	if n, ok := pool.Negotiated(); ok {
		neg = n.String()
	}
	scenario := "rpcload/" + pt.prof.Name
	if pt.delta {
		scenario += "+delta"
	}
	bytes := int64(pt.calls) * int64(pt.payload) * 2 // request + echoed response
	return Result{
		Scenario:       scenario,
		Bytes:          bytes,
		ElapsedSeconds: elapsed.Seconds(),
		ThroughputBps:  float64(bytes) / elapsed.Seconds(),
		Negotiated:     neg,
		Calls:          pt.calls,
		Concurrency:    pt.concurrency,
		WireBytes:      stats.WireSent + stats.WireReceived,
		P50CallSeconds: p50,
	}, nil
}
