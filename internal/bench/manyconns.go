package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/datagen"
	"adoc/internal/netsim"
)

// The manyconns scenario measures what one connection costs at serving
// scale: N concurrent adocnet connections through a single Server over the
// in-memory fabric, reporting steady-state goroutines per connection
// (idle, and stalled mid-message with the full pipeline stood up) and heap
// allocations per message exchange. These are the numbers the shared
// worker/buffer pools exist to hold down, and CI pins them as budgets.

// DefaultManyConns is the connection count of the reported scenario.
const DefaultManyConns = 1000

// manyConnsResult carries the raw measurements of one run.
type manyConnsResult struct {
	conns       int
	idlePerConn float64 // goroutines per conn, parked between messages
	actPerConn  float64 // goroutines per conn, stalled mid-message
	allocsPerOp float64 // heap allocations per message exchange
	elapsed     time.Duration
	bytes       int64 // payload moved during the run
	negotiated  string
}

// manyConnsOptions is the fixed engine configuration of the scenario.
// Sizes are scaled down (4 KB buffers, 8 KB stream threshold) so a
// thousand pipelines fit comfortably, and Parallelism is pinned so the
// goroutine anatomy being measured does not depend on the host's core
// count.
func manyConnsOptions() adocnet.Options {
	return adocnet.Options{Options: adoc.Options{
		PacketSize:     1024,
		BufferSize:     4096,
		SmallThreshold: 8192,
		DisableProbe:   true,
		Parallelism:    4,
	}}
}

// manyConnsBufSize mirrors manyConnsOptions' BufferSize for workload
// sizing.
const manyConnsBufSize = 4096

// ManyConns runs the scenario at DefaultManyConns connections.
func ManyConns(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "manyconns",
		Title: "Per-connection cost at serving scale (shared worker/buffer pools)",
		Columns: []string{"conns", "goroutines/conn idle", "goroutines/conn active",
			"allocs/op", "elapsed(s)"},
	}
	cfg.logf("manyconns: %d connections through one server", DefaultManyConns)
	res, err := runManyConns(DefaultManyConns, 200, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("manyconns: %w", err)
	}
	t.AddRow(
		fmt.Sprintf("%d", res.conns),
		fmt.Sprintf("%.3f", res.idlePerConn),
		fmt.Sprintf("%.3f", res.actPerConn),
		fmt.Sprintf("%.1f", res.allocsPerOp),
		fmt.Sprintf("%.3f", res.elapsed.Seconds()),
	)
	t.AddResult(Result{
		Scenario:                fmt.Sprintf("manyconns/%d", res.conns),
		Bytes:                   res.bytes,
		ElapsedSeconds:          res.elapsed.Seconds(),
		ThroughputBps:           float64(res.bytes) / res.elapsed.Seconds(),
		Negotiated:              res.negotiated,
		Conns:                   res.conns,
		GoroutinesPerConnIdle:   res.idlePerConn,
		GoroutinesPerConnActive: res.actPerConn,
		AllocsPerOp:             res.allocsPerOp,
	})
	t.AddNote("idle = parked between messages; active = every connection stalled mid-message with its full send+receive pipeline stood up")
	t.AddNote("active includes the two application goroutines per connection (sender and handler); engine-owned goroutines are the remainder")
	t.AddNote("allocs/op = whole-process heap allocations per %d-byte stream message exchange, pools warm", 4*manyConnsBufSize)
	return t, nil
}

// gatedReader yields its data in two installments: limit bytes freely,
// then nothing until the gate closes. It holds a send pipeline stalled
// mid-message in a deterministic steady state.
type gatedReader struct {
	data  []byte
	off   int
	limit int // bytes released before the gate
	gate  chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.off >= g.limit {
		<-g.gate
	}
	if g.off >= len(g.data) {
		return 0, io.EOF
	}
	end := len(g.data)
	if g.off < g.limit && end > g.limit {
		end = g.limit
	}
	n := copy(p, g.data[g.off:end])
	g.off += n
	return n, nil
}

// settledGoroutines polls runtime.NumGoroutine until the count holds still
// long enough to call it steady state, then returns it.
func settledGoroutines() int {
	last, stable := runtime.NumGoroutine(), 0
	deadline := time.Now().Add(5 * time.Second)
	for stable < 10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	return last
}

// runManyConns stands up conns client/server connection pairs on one
// Server and measures the three per-connection costs. msgs is the sample
// size of the allocations measurement.
func runManyConns(conns, msgs int, seed int64) (manyConnsResult, error) {
	opts := manyConnsOptions()
	baseline := settledGoroutines()
	start := time.Now()

	nw := netsim.NewNetwork(netsim.Quiet(netsim.GbitLAN(seed)))
	lnRaw, err := nw.Listen("manyconns")
	if err != nil {
		return manyConnsResult{}, err
	}
	// The handler drains whatever arrives and echoes exactly the
	// warmup-sized chunks, so clients can confirm the round trip without
	// the server needing message boundaries.
	const warmupLen = 16
	srv := adocnet.NewServer(opts, func(c *adocnet.Conn) {
		for {
			chunk, err := c.ReadChunk()
			if err != nil {
				return
			}
			if len(chunk) == warmupLen {
				if _, err := c.WriteMessage(chunk); err != nil {
					return
				}
			}
		}
	})
	go srv.Serve(adocnet.NewListener(lnRaw, opts))
	defer srv.Close()

	var bytes int64
	clients := make([]*adocnet.Conn, 0, conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	warmup := datagen.ASCII(warmupLen, seed)
	back := make([]byte, warmupLen)
	for i := 0; i < conns; i++ {
		raw, err := nw.Dial("manyconns")
		if err != nil {
			return manyConnsResult{}, err
		}
		c, err := adocnet.Handshake(raw, opts)
		if err != nil {
			return manyConnsResult{}, fmt.Errorf("conn %d handshake: %w", i, err)
		}
		clients = append(clients, c)
		// One echo per connection proves both directions are live before
		// anything is measured.
		if _, err := c.WriteMessage(warmup); err != nil {
			return manyConnsResult{}, fmt.Errorf("conn %d warmup: %w", i, err)
		}
		if err := readFull(c, back); err != nil {
			return manyConnsResult{}, fmt.Errorf("conn %d warmup echo: %w", i, err)
		}
		bytes += 2 * warmupLen
	}

	// Phase 1 — idle: every connection parked between messages.
	idle := settledGoroutines() - baseline
	idlePerConn := float64(idle) / float64(conns)

	// Phase 2 — active: every connection stalled mid-message, so each
	// full send pipeline (emitter, reassembly) and receive pipeline
	// (reception goroutine) is stood up and blocked in its steady state. This is the shape a burst of large transfers
	// pins, and where per-engine worker goroutines used to multiply.
	stallLen := 3 * manyConnsBufSize
	payload := datagen.ASCII(stallLen, seed)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	sendErrs := make(chan error, conns)
	for _, c := range clients {
		wg.Add(1)
		go func(c *adocnet.Conn) {
			defer wg.Done()
			src := &gatedReader{data: payload, limit: manyConnsBufSize, gate: gate}
			if _, _, err := c.SendStream(src, int64(stallLen)); err != nil {
				sendErrs <- err
			}
		}(c)
	}
	active := settledGoroutines() - baseline
	actPerConn := float64(active) / float64(conns)

	close(gate)
	wg.Wait()
	close(sendErrs)
	for err := range sendErrs {
		return manyConnsResult{}, fmt.Errorf("stalled send: %w", err)
	}
	bytes += int64(conns) * int64(stallLen)

	// Phase 3 — allocations per message exchange on one connection while
	// the other conns-1 sit idle. Whole-process Mallocs delta, so the
	// server's receive side counts too — the honest per-op number.
	msgLen := 4 * manyConnsBufSize
	msgPayload := datagen.ASCII(msgLen, seed)
	before := srv.Stats().MsgsReceived
	// Warm the pools and let the stall-phase teardown finish first.
	if _, err := clients[0].WriteMessage(msgPayload); err != nil {
		return manyConnsResult{}, err
	}
	if err := waitMsgsReceived(srv, before+1); err != nil {
		return manyConnsResult{}, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < msgs; i++ {
		if _, err := clients[0].WriteMessage(msgPayload); err != nil {
			return manyConnsResult{}, err
		}
	}
	if err := waitMsgsReceived(srv, before+1+int64(msgs)); err != nil {
		return manyConnsResult{}, err
	}
	runtime.ReadMemStats(&ms1)
	allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(msgs)
	bytes += int64(msgs+1) * int64(msgLen)

	return manyConnsResult{
		conns:       conns,
		idlePerConn: idlePerConn,
		actPerConn:  actPerConn,
		allocsPerOp: allocsPerOp,
		elapsed:     time.Since(start),
		bytes:       bytes,
		negotiated:  clients[0].Negotiated().String(),
	}, nil
}

// waitMsgsReceived polls the server's aggregate counters until want
// messages have been fully received (or times out).
func waitMsgsReceived(srv *adocnet.Server, want int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().MsgsReceived >= want {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server received %d messages, want %d", srv.Stats().MsgsReceived, want)
}
