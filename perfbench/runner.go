package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adoc"
)

// stack is one built workload: listeners, servers and client connections
// ready for ops.
type stack interface {
	// do runs op i for caller c and verifies what came back. It returns
	// the payload bytes delivered; any error, short read or wrong byte is
	// an error.
	do(c, i int, tr *tracer, parent int32) (int64, error)
	// counters snapshots the layer counters the stack exposes.
	counters() layerSnap
	close()
}

// layerSnap is a point-in-time copy of the counters a stack exposes.
type layerSnap struct {
	sock     sockSnap
	eng      adoc.Stats // engine counters of the stack's sending side
	sessions int        // live sessions of a session pool
}

// window is what one measured stretch of ops produced.
type window struct {
	lat     []float64 // latency of each verified op, ms
	ends    []float64 // when each verified op ended, s from the window's start
	sizes   []int64   // payload bytes of each verified op
	bytes   int64     // verified payload bytes
	done    int64     // verified ops
	failed  int64     // ops that errored, timed out, or failed verification
	t0      time.Time // when the window started
	elapsed time.Duration
	next    int // index of the first op not run
	errs    []string
}

func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.ends = append(w.ends, o.ends...)
	w.sizes = append(w.sizes, o.sizes...)
	w.bytes += o.bytes
	w.done += o.done
	w.failed += o.failed
	w.elapsed += o.elapsed
	w.next = o.next
	w.errs = append(w.errs, o.errs...)
}

func (w window) goodput() float64 { return float64(w.bytes) / 1e6 / w.elapsed.Seconds() }

const maxErrs = 5

// measure runs ops start, start+1, ... on callers closed-loop callers until
// dur has passed, stopping only where (i-start) is a multiple of block so
// that a run covers whole blocks of the op sequence.
func measure(st stack, callers, start, block int, dur time.Duration, tr *tracer) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		t0   = time.Now()
		w    = window{t0: t0}
	)
	next.Store(int64(start))
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, ends []float64
			var sizes []int64
			var bytes, done, failed int64
			var errs []string
			for {
				i := int(next.Add(1) - 1)
				if time.Since(t0) >= dur && (i-start)%block == 0 {
					break
				}
				id := tr.begin("op", int64(i), -1)
				s := time.Now()
				n, err := safeDo(st, c, i, tr, id)
				d := time.Since(s)
				tr.end(id)
				if err != nil {
					failed++
					if len(errs) < maxErrs {
						errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				lat = append(lat, float64(d)/1e6)
				ends = append(ends, time.Since(t0).Seconds())
				sizes = append(sizes, n)
				bytes += n
				done++
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.ends = append(w.ends, ends...)
			w.sizes = append(w.sizes, sizes...)
			w.bytes += bytes
			w.done += done
			w.failed += failed
			w.errs = append(w.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	w.next = int(next.Load())
	if callers == 1 {
		w.next-- // the single caller fetched one index it did not run
	}
	return w
}

// safeDo turns a panic on the caller's goroutine into a counted failure.
func safeDo(st stack, c, i int, tr *tracer, parent int32) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return st.do(c, i, tr, parent)
}

// firstOps runs the set-up op on every caller at once and returns when
// all have finished: the end of set-up.
func firstOps(st stack, callers int, tr *tracer) error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("first_op", warmOp, -1)
			_, errs[c] = safeDo(st, c, warmOp, tr, id)
			tr.end(id)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// engDelta returns the additive engine counters accumulated between a and
// b; QueueHighWater is b's.
func engDelta(b, a adoc.Stats) adoc.Stats {
	d := b
	d.MsgsSent -= a.MsgsSent
	d.MsgsReceived -= a.MsgsReceived
	d.RawSent -= a.RawSent
	d.WireSent -= a.WireSent
	d.RawReceived -= a.RawReceived
	d.WireReceived -= a.WireReceived
	d.SmallSent -= a.SmallSent
	d.ProbeBypasses -= a.ProbeBypasses
	d.Controller.Updates -= a.Controller.Updates
	d.Controller.Divergences -= a.Controller.Divergences
	d.Controller.Pins -= a.Controller.Pins
	d.Controller.EntropyBypasses -= a.Controller.EntropyBypasses
	lc := append([]int64(nil), b.Controller.LevelCount...)
	for l := range lc {
		if l < len(a.Controller.LevelCount) {
			lc[l] -= a.Controller.LevelCount[l]
		}
	}
	d.Controller.LevelCount = lc
	return d
}
