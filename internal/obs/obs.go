// Package obs is the unified observability layer: typed atomic metrics
// (counters, gauges, histograms) registered in a Registry that renders
// the Prometheus text exposition format.
//
// The design goal is that instrumentation costs nothing on the per-buffer
// hot path. Every metric is one or two atomic adds — no maps, no locks,
// no allocations. The trick is parent-chaining: a Registry owns one root
// metric per family (the process- or stack-wide total), and each
// per-connection owner (an engine, a mux session, an RPC pool) holds a
// Child of that root. Incrementing the child bumps the child and the root
// with two uncontended-in-practice atomic adds, so
//
//   - the owner's Stats() view reads its own child values (per-connection
//     counters, exactly as before the refactor), and
//   - the registry renders process totals without walking owners, and
//     retired owners' contributions persist with no fold-on-close
//     bookkeeping.
//
// Registries bind per stack: Options.Metrics names a registry, nil means
// the process-wide Default(). Instantaneous values that cannot be summed across owners
// (the adapt controller's current level, per-level bandwidth EWMAs) are
// published as GaugeFuncs by the long-lived owner that holds them — the
// gateway registers its tunnel's snapshot, not every connection its own.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// Counter is a monotonically increasing atomic counter. A Counter
// obtained from a Registry is the family root; Child() derives a
// per-owner counter whose increments also bump the root. The zero value
// (or NewCounter) is a detached counter bound to no registry.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// NewCounter returns a detached counter (no registry, no parent) — for
// owners constructed without a metrics binding.
func NewCounter() *Counter { return &Counter{} }

// Child returns a new counter whose Add/Inc also increment c (and c's
// own parents, transitively).
func (c *Counter) Child() *Counter { return &Counter{parent: c} }

// Add increments the counter (and its parent chain) by n.
func (c *Counter) Add(n int64) {
	for x := c; x != nil; x = x.parent {
		x.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. Children created with Child
// propagate Add/Inc/Dec to the family root, so the root reads as the sum
// across owners (live ones only — owners decrement what they added when
// they go away). Set writes the local value only and is for root or
// detached gauges.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// NewGauge returns a detached gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Child returns a gauge whose Add/Inc/Dec also apply to g.
func (g *Gauge) Child() *Gauge { return &Gauge{parent: g} }

// Add moves the gauge (and its parent chain) by n.
func (g *Gauge) Add(n int64) {
	for x := g; x != nil; x = x.parent {
		x.v.Add(n)
	}
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set stores v locally, without touching the parent chain.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are histogram bounds suited to RPC latencies, in
// seconds, from half a millisecond to ten seconds.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket atomic histogram. Observations are
// lock-free: one atomic add on the bucket, one on the count, and a CAS
// loop on the sum. Like Counter, a registry Histogram is the family root
// and Child() derives per-owner instances feeding it.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
	parent  *Histogram
}

// NewHistogram returns a detached histogram over the given upper bounds
// (nil selects DefLatencyBuckets). Bounds are sorted and deduplicated.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	n := 0
	for i, b := range bs {
		if i == 0 || b != bs[n-1] {
			bs[n] = b
			n++
		}
	}
	bs = bs[:n]
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Child returns a histogram with the same bounds whose observations also
// feed h.
func (h *Histogram) Child() *Histogram {
	c := NewHistogram(h.bounds)
	c.parent = h
	return c
}

// Observe records v in h and its parent chain.
func (h *Histogram) Observe(v float64) {
	for x := h; x != nil; x = x.parent {
		x.observe(v)
	}
}

func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
