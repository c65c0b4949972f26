// Package bufpool recycles byte buffers across connections through a
// tiered pool: one bucket per power-of-two capacity, so a 200 KB
// adaptation buffer released by one engine is reused by the next instead
// of allocated fresh. This is the capnp exp/bufferpool pattern, sized for
// AdOC's working set — packet frames (KBs), adaptation and scratch
// buffers (hundreds of KBs).
//
// Buffers are zeroed when they are returned, never when they are handed
// out, so Get is cheap on the hot path and a pooled buffer can never leak
// one connection's payload bytes into another connection's view.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"adoc/internal/obs"
)

// Pool sizing defaults.
const (
	// DefaultMinAlloc is the smallest capacity the pool hands out;
	// requests below it still come from the smallest bucket so tiny
	// buffers churn one tier instead of many.
	DefaultMinAlloc = 1 << 10
	// DefaultMaxSize is the largest capacity the pool retains. Requests
	// above it are plain allocations and their buffers are dropped on
	// Put — a one-off giant buffer must not stay pinned forever.
	DefaultMaxSize = 1 << 22
)

// Pool is a tiered byte-buffer pool. The zero value is ready to use with
// the default tier bounds; Pool must not be copied after first use.
type Pool struct {
	// MinAlloc and MaxSize bound the pooled capacities (both rounded up
	// to powers of two); zero selects the defaults.
	MinAlloc, MaxSize int

	once    sync.Once
	min     int         // effective MinAlloc
	max     int         // effective MaxSize
	buckets []sync.Pool // buckets[i] holds &b[0] of buffers b of cap min<<i

	// Health counters: gets/puts are traffic, allocs are Gets a bucket
	// could not serve (fresh make), drops are Puts outside the tier range.
	// allocs close to gets means the pool is not recycling.
	gets, puts, allocs, drops atomic.Int64
}

// Stats is a snapshot of pool activity.
type Stats struct {
	// Gets and Puts count buffer checkouts and returns.
	Gets, Puts int64
	// Allocs counts Gets served by a fresh allocation (bucket miss or
	// request beyond MaxSize).
	Allocs int64
	// Drops counts Puts the pool declined to retain.
	Drops int64
}

// Stats returns the pool's health counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:   p.gets.Load(),
		Puts:   p.puts.Load(),
		Allocs: p.allocs.Load(),
		Drops:  p.drops.Load(),
	}
}

// Registry metric families the buffer pool publishes.
const (
	MetricGets   = "adoc_bufpool_gets_total"
	MetricPuts   = "adoc_bufpool_puts_total"
	MetricAllocs = "adoc_bufpool_allocs_total"
	MetricDrops  = "adoc_bufpool_drops_total"
)

// RegisterMetrics publishes the pool's counters on reg as callback-backed
// series. Idempotent; re-registering re-points the callbacks.
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc(MetricGets, "Buffer checkouts.", func() float64 { return float64(p.gets.Load()) })
	reg.CounterFunc(MetricPuts, "Buffer returns.", func() float64 { return float64(p.puts.Load()) })
	reg.CounterFunc(MetricAllocs, "Checkouts served by a fresh allocation.", func() float64 { return float64(p.allocs.Load()) })
	reg.CounterFunc(MetricDrops, "Returns the pool declined to retain.", func() float64 { return float64(p.drops.Load()) })
}

func (p *Pool) init() {
	p.once.Do(func() {
		p.min = ceilPow2(p.MinAlloc)
		if p.min <= 0 {
			p.min = DefaultMinAlloc
		}
		p.max = ceilPow2(p.MaxSize)
		if p.max <= 0 {
			p.max = DefaultMaxSize
		}
		if p.max < p.min {
			p.max = p.min
		}
		tiers := bits.TrailingZeros(uint(p.max)) - bits.TrailingZeros(uint(p.min)) + 1
		p.buckets = make([]sync.Pool, tiers)
	})
}

// ceilPow2 rounds n up to the next power of two (0 stays 0).
func ceilPow2(n int) int {
	if n <= 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// bucketFor returns the tier index serving a request of n bytes, or -1
// when n is beyond the pooled range.
func (p *Pool) bucketFor(n int) int {
	c := ceilPow2(n)
	if c < p.min {
		c = p.min
	}
	if c > p.max {
		return -1
	}
	return bits.TrailingZeros(uint(c)) - bits.TrailingZeros(uint(p.min))
}

// Get returns a buffer with len(b) == n whose contents are zero. The
// buffer comes from the tier whose capacity is the next power of two at
// or above n; requests beyond MaxSize are plain allocations.
func (p *Pool) Get(n int) []byte {
	p.init()
	p.gets.Add(1)
	i := p.bucketFor(n)
	if i < 0 {
		p.allocs.Add(1)
		return make([]byte, n)
	}
	if v := p.buckets[i].Get(); v != nil {
		return unsafe.Slice(v.(*byte), p.min<<i)[:n]
	}
	p.allocs.Add(1)
	return make([]byte, n, p.min<<i)
}

// Put returns b to its tier for reuse, zeroing its full capacity first so
// no payload bytes survive into the next Get. Buffers whose capacity is
// not one of the pool's tier sizes (not handed out by Get, or beyond
// MaxSize) are dropped for the GC.
func (p *Pool) Put(b []byte) {
	p.init()
	p.puts.Add(1)
	c := cap(b)
	if c < p.min || c > p.max || c&(c-1) != 0 {
		p.drops.Add(1)
		return
	}
	b = b[:c]
	clear(b)
	i := bits.TrailingZeros(uint(c)) - bits.TrailingZeros(uint(p.min))
	// A bucket holds the pointer to the first byte, which fits an
	// interface without the allocation a slice header would cost on
	// every Put; the bucket's tier gives the capacity back in Get.
	p.buckets[i].Put(&b[0])
}

// Default is the process-wide pool every engine shares unless it brings
// its own.
var Default Pool

// Get returns a zeroed buffer of length n from the process-wide pool.
func Get(n int) []byte { return Default.Get(n) }

// Put recycles b into the process-wide pool.
func Put(b []byte) { Default.Put(b) }
