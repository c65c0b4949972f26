package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adoc/internal/codec"
)

// workload is one benchmark workload: its inputs and how to build the
// stack it runs on.
type workload struct {
	name    string
	callers int     // closed-loop callers
	tailPct float64 // the percentile op_tail_ms reports
	slice   int     // ops per slice of the measured window; see sliceStats
	mix     mix
	blocks  bool    // measure whole blocks of the op sequence
	link    float64 // simulated link rate in bytes/s; 0 when none
	codecMB int     // payload bytes the codec figures are timed on
	build   func(in *inputs, sock *sockCounters, callers int) (stack, error)
	raw     func(in *inputs, callers int) (stack, error) // bare-transport baseline, or nil
}

var workloads = map[string]workload{
	wBulk: {
		name: wBulk, callers: 1, tailPct: 90, slice: bulkMix.blockLen(), mix: bulkMix, blocks: true,
		link: bulkLink(0).BandwidthBps, codecMB: 8,
		build: func(in *inputs, sock *sockCounters, _ int) (stack, error) { return newBulk(in, sock, true) },
		raw: func(in *inputs, _ int) (stack, error) {
			return newBulk(in, &sockCounters{}, false)
		},
	},
	wRPC: {
		name: wRPC, callers: 2, tailPct: 99.9, slice: 8192, mix: rpcMix, codecMB: 2,
		build: func(in *inputs, sock *sockCounters, _ int) (stack, error) { return newRPC(in, sock) },
	},
	wProxy: {
		name: wProxy, callers: 2, tailPct: 99, slice: 512, mix: proxyMix, codecMB: 4,
		build: func(in *inputs, sock *sockCounters, callers int) (stack, error) {
			return newProxy(in, sock, callers)
		},
		raw: func(in *inputs, callers int) (stack, error) { return newDirect(in, callers) },
	},
}

const (
	setupRuns = 21          // set-ups per run; setup_s is their median
	warmDur   = time.Second // ops run after set-up and before timing
	spanCap   = 1 << 19
)

// runConfig is one invocation of a workload.
type runConfig struct {
	seed      int64
	dur       time.Duration
	trace     bool
	spansPath string
	corruptAt int64 // fault injection: corrupt the n-th large socket write
}

// outcome is a finished run: the metrics and the op accounting.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
	errs              []string
}

// set records a metric declared in e2eMetrics or layerMetrics; unitOf
// panics on any other name. A figure with no verified op behind it (every
// op failed) is reported as 0, which JSON can carry where NaN cannot.
func (o *outcome) set(name string, v float64) {
	unitOf(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = v
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) count(w window) {
	o.attempted += w.done + w.failed
	o.failed += w.failed
	o.errs = append(o.errs, w.errs...)
}

// tracerSetter is implemented by stacks whose own goroutines record spans.
type tracerSetter interface{ setTracer(*tracer) }

func setTracer(st stack, tr *tracer) {
	if ts, ok := st.(tracerSetter); ok {
		ts.setTracer(tr)
	}
}

// setUp builds the stack setupRuns times, each time up to its first
// completed op on every caller, and keeps the last one. It returns the
// median set-up time.
func setUp(w workload, in *inputs, tr *tracer) (stack, *sockCounters, float64, error) {
	var times []float64
	for k := 0; ; k++ {
		sock := &sockCounters{}
		t0 := time.Now()
		st, err := w.build(in, sock, w.callers)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setTracer(st, tr)
		err = firstOps(st, w.callers, tr)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			st.close()
			return nil, nil, 0, fmt.Errorf("set-up: first op: %w", err)
		}
		if k == setupRuns-1 {
			return st, sock, median(times), nil
		}
		st.close()
	}
}

// run executes one workload run and returns its metrics.
func run(w workload, cfg runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	in := genInputs(cfg.seed, w.mix)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(spanCap)
	}
	runtime.GC()
	st, sock, setupS, err := setUp(w, in, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setTracer(st, nil)
	o.count(measure(st, w.callers, len(in.ops)/2, 1, warmDur, nil))
	sock.corruptAt.Store(cfg.corruptAt)
	// Start measuring from the live set alone: memory the runtime still
	// holds from generating inputs and from set-up is returned first.
	debug.FreeOSMemory()
	if cfg.trace {
		return o, traced(o, w, in, st, cfg, tr)
	}
	untraced(o, w, st, cfg, setupS)
	return o, nil
}

// block is the op count a measured stretch must be a multiple of.
func (w workload) block() int {
	if w.blocks {
		return w.mix.blockLen()
	}
	return 1
}

// untraced measures the end-to-end metrics.
func untraced(o *outcome, w workload, st stack, cfg runConfig, setupS float64) {
	peakReset := resetPeakRSS()
	smp := startSampler()
	m := measure(st, w.callers, 0, w.block(), cfg.dur, nil)
	smp.finish()
	o.count(m)
	mem := smp.rssPeak
	if peakReset {
		mem = max(mem, procStatusBytes("VmHWM"))
	}
	sl := sliceStats(m, w.slice, w.tailPct, &smp.steal)
	o.set("goodput_MBps", sl.goodput)
	o.set("ops_per_s", sl.opsPerS)
	o.set("op_p50_ms", sl.p50)
	o.set("op_tail_ms", sl.tail)
	o.set("verified_frac", ratio(float64(m.done), float64(m.done+m.failed)))
	o.set("setup_s", setupS)
	o.set("mem_peak_MB", float64(mem)/1e6)
	o.note("measured %.2f s, %d ops, %.1f MB verified payload; cpu steal %.1f%%",
		m.elapsed.Seconds(), m.done, float64(m.bytes)/1e6, 100*smp.steal.share(m.t0, m.t0.Add(m.elapsed)))
	o.note("kept %d of %d slices of at least %d ops, leaving out those with more cpu steal than the median slice (when there are at least %d)",
		sl.kept, sl.slices, w.slice, minFilteredSlices)
	o.note("goodput_MBps and ops_per_s are medians over the kept slices; op_p50_ms and op_tail_ms are over their %d ops", sl.keptOps)
	o.note("op_tail_ms is the p%g latency, Harrell-Davis estimate, with %d ops beyond it", w.tailPct, beyond(sl.keptOps, w.tailPct))
	o.note("setup_s is the median of %d set-ups", setupRuns)
}

// traced measures the per-layer metrics. It alternates untraced and
// traced phases on the same stack, so trace.overhead compares like with
// like, then runs the bare-transport baseline and times the codec.
func traced(o *outcome, w workload, in *inputs, st stack, cfg runConfig, tr *tracer) error {
	snap0, rt0, smp := st.counters(), readRuntime(), startSampler()
	var wU, wT window
	next := 0
	for ph := 0; ph < 4; ph++ {
		var t *tracer
		if ph%2 == 1 {
			t = tr
		}
		setTracer(st, t)
		x := measure(st, w.callers, next, w.block(), cfg.dur/4, t)
		next = x.next
		if t == nil {
			wU.add(x)
		} else {
			wT.add(x)
		}
	}
	setTracer(st, nil)
	rt1, snap1 := readRuntime(), st.counters()
	smp.finish()
	o.count(wU)
	o.count(wT)
	all := wU
	all.add(wT)

	var rawGood float64
	if w.raw != nil {
		rs, err := w.raw(in, w.callers)
		if err != nil {
			return fmt.Errorf("baseline set-up: %w", err)
		}
		err = firstOps(rs, w.callers, nil)
		if err != nil {
			rs.close()
			return fmt.Errorf("baseline first op: %w", err)
		}
		rw := measure(rs, w.callers, 0, w.block(), cfg.dur/2, nil)
		rs.close()
		o.count(rw)
		rawGood = rw.goodput()
	}

	layers := layerValues(w, layerInput{
		all: all, goodU: wU.goodput(), goodT: wT.goodput(), rawGood: rawGood,
		sock: snap1.sock.sub(snap0.sock), eng: engDelta(snap1.eng, snap0.eng),
		sessions: snap1.sessions, rt: rt1.sub(rt0), goroutines: smp.goroutines,
		tr: tr, codec: timeCodec(in, w.codecMB<<20, tr),
	})
	if err := checkLayers(w.name, layers); err != nil {
		return err
	}
	var none []string
	for _, m := range layerMetrics {
		o.set(m.name, layers[m.name])
		if !m.appliesTo(w.name) {
			none = append(none, m.name)
		}
	}
	o.note("not applicable to %s, reported as 0: %s", w.name, strings.Join(none, ", "))
	if n := tr.dropped.Load(); n > 0 {
		o.note("%d spans dropped past the %d-span buffer", n, spanCap)
	}
	if err := tr.write(cfg.spansPath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	o.note("spans written to %s", cfg.spansPath)
	return nil
}

// rtSnap is the process's runtime cost so far.
type rtSnap struct {
	cpu            time.Duration
	mallocs, alloc uint64
	gcs            uint32
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rtSnap{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs, alloc: m.TotalAlloc, gcs: m.NumGC}
}

func (b rtSnap) sub(a rtSnap) rtSnap {
	return rtSnap{cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs,
		alloc: b.alloc - a.alloc, gcs: b.gcs - a.gcs}
}

// sampler polls goroutine count, resident memory and CPU steal while a
// window runs. Its fields are final once finish returns.
type sampler struct {
	stop, done chan struct{}
	goroutines int
	rssPeak    int64
	steal      stealLog
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.goroutines = max(s.goroutines, runtime.NumGoroutine())
			s.rssPeak = max(s.rssPeak, procStatusBytes("VmRSS"))
			s.steal.record()
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler after one last sample.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	s.steal.record()
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting so that
// it covers only what follows.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// procStatusBytes reads a kB field of /proc/self/status; 0 if absent.
func procStatusBytes(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// codecResult is the codec timed directly on the workload's payloads.
type codecResult struct {
	c1, c6, d6, r1, r6, probe, sampleMB float64
}

// codecUnit is the largest piece the codec is timed on: the engine's
// default adaptation buffer.
const codecUnit = 200 << 10

// timeCodec times codec.Compress at levels 1 and 6, codec.Decompress at
// level 6 and the entropy probe on the first maxBytes of the workload's
// payloads, cut into adaptation-buffer-sized units.
func timeCodec(in *inputs, maxBytes int, tr *tracer) codecResult {
	var units [][]byte
	total := 0
	for i := 0; total < maxBytes; i++ {
		p := in.payload(i)
		for len(p) > 0 && total < maxBytes {
			n := min(len(p), codecUnit, maxBytes-total)
			units = append(units, p[:n])
			p = p[n:]
			total += n
		}
	}
	timed := func(name string, f func(i int)) float64 {
		const minDur = 150 * time.Millisecond
		var bytes int
		t0 := time.Now()
		for time.Since(t0) < minDur {
			for i, u := range units {
				f(i)
				bytes += len(u)
			}
		}
		d := time.Since(t0)
		tr.add(name, -2, -1, t0, t0.Add(d))
		return float64(bytes) / 1e6 / d.Seconds()
	}
	compress := func(l codec.Level) (blocks [][]byte, levels []codec.Level, ratio float64) {
		var out int
		for _, u := range units {
			b, got, err := codec.Compress(l, u)
			if err != nil {
				panic(err) // levels 1 and 6 are valid: only a codec bug gets here
			}
			blocks, levels = append(blocks, b), append(levels, got)
			out += len(b)
		}
		return blocks, levels, float64(total) / float64(out)
	}
	r := codecResult{sampleMB: float64(total) / 1e6}
	r.c1 = timed("codec.Compress.l1", func(i int) { codec.Compress(1, units[i]) })
	r.c6 = timed("codec.Compress.l6", func(i int) { codec.Compress(6, units[i]) })
	_, _, r.r1 = compress(1)
	blocks, levels, r6 := compress(6)
	r.r6 = r6
	r.d6 = timed("codec.Decompress.l6", func(i int) { codec.Decompress(levels[i], blocks[i], len(units[i])) })
	r.probe = timed("codec.Incompressible", func(i int) { codec.Incompressible(units[i]) })
	return r
}
