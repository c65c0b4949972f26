package bufpool

import (
	"sync"
	"testing"
)

// TestGetLengthAndZero checks the Get contract across the tier range:
// exact length, capacity on a pool tier, contents all zero.
func TestGetLengthAndZero(t *testing.T) {
	var p Pool
	for _, n := range []int{0, 1, 100, DefaultMinAlloc - 1, DefaultMinAlloc,
		DefaultMinAlloc + 1, 8 << 10, 200 << 10, DefaultMaxSize} {
		b := p.Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < DefaultMinAlloc || c > DefaultMaxSize {
			t.Fatalf("Get(%d): cap %d is not a pool tier", n, c)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Get(%d): byte %d = %d, want 0", n, i, v)
			}
		}
		p.Put(b)
	}
}

// TestTierBoundaries pins the rounding at the power-of-two edges: a
// request one past a tier's capacity must land on the next tier, never
// reallocate-on-append territory.
func TestTierBoundaries(t *testing.T) {
	var p Pool
	for size := DefaultMinAlloc; size < DefaultMaxSize; size <<= 1 {
		if c := cap(p.Get(size)); c != size {
			t.Errorf("Get(%d): cap = %d, want exact tier", size, c)
		}
		if c := cap(p.Get(size + 1)); c != size<<1 {
			t.Errorf("Get(%d): cap = %d, want next tier %d", size+1, c, size<<1)
		}
		if c := cap(p.Get(size - 1)); c != size {
			t.Errorf("Get(%d): cap = %d, want tier %d", size-1, c, size)
		}
	}
}

// TestOversizeFallsThrough checks that requests beyond MaxSize are plain
// allocations and that Put drops them instead of pinning them.
func TestOversizeFallsThrough(t *testing.T) {
	var p Pool
	b := p.Get(DefaultMaxSize + 1)
	if len(b) != DefaultMaxSize+1 {
		t.Fatalf("len = %d", len(b))
	}
	p.Put(b) // must not panic; must not be retained
	if c := cap(p.Get(DefaultMaxSize)); c != DefaultMaxSize {
		t.Fatalf("largest tier corrupted: cap = %d", c)
	}
}

// TestPutForeignBufferDropped checks that buffers the pool never handed
// out — odd capacities, or slices of a tier buffer — are dropped rather
// than poisoning a bucket with a wrong-capacity entry.
func TestPutForeignBufferDropped(t *testing.T) {
	var p Pool
	p.Put(make([]byte, 3000))     // non-power-of-two capacity
	p.Put(make([]byte, 100))      // below MinAlloc
	p.Put(p.Get(4 << 10)[:1<<10]) // reslice: cap still a tier, accepted
	for i := 0; i < 4; i++ {
		b := p.Get(4 << 10)
		if cap(b) < 4<<10 {
			t.Fatalf("tier handed out undersized cap %d", cap(b))
		}
	}
}

// TestNoCrossUseLeakage is the data-leakage test: a buffer returned dirty
// by one "connection" must come back fully zeroed for the next, over every
// tier in AdOC's working set.
func TestNoCrossUseLeakage(t *testing.T) {
	var p Pool
	for _, n := range []int{1 << 10, 8 << 10, 200 << 10} {
		b := p.Get(n)
		for i := range b {
			b[i] = 0xAB // one connection's payload
		}
		// Return it shorter than it was filled: the pool must scrub the
		// full capacity, not just the visible length.
		p.Put(b[:1])
		c := p.Get(n)
		for i, v := range c {
			if v != 0 {
				t.Fatalf("tier %d: reused buffer leaks byte %d = %#x", n, i, v)
			}
		}
		p.Put(c)
	}
}

// TestConcurrentGetPut hammers one pool from many goroutines (meaningful
// under -race) with mixed sizes, each checking the zeroed-contents
// contract before writing its own pattern.
func TestConcurrentGetPut(t *testing.T) {
	var p Pool
	sizes := []int{512, 4 << 10, 64 << 10, 200 << 10}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := p.Get(sizes[(g+i)%len(sizes)])
				for j, v := range b {
					if v != 0 {
						t.Errorf("goroutine %d: dirty buffer at %d", g, j)
						return
					}
				}
				for j := range b {
					b[j] = byte(g + 1)
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestCustomBounds checks that explicit MinAlloc/MaxSize round up to
// powers of two and bound the tiers.
func TestCustomBounds(t *testing.T) {
	p := Pool{MinAlloc: 100, MaxSize: 5000}
	if c := cap(p.Get(1)); c != 128 {
		t.Errorf("MinAlloc 100: smallest tier cap = %d, want 128", c)
	}
	if c := cap(p.Get(5000)); c != 8192 {
		t.Errorf("MaxSize 5000: largest tier cap = %d, want 8192", c)
	}
	if c := cap(p.Get(8193)); c != 8193 {
		t.Errorf("beyond MaxSize: cap = %d, want exact plain allocation", c)
	}
}

// TestPackageLevelDefault exercises the process-wide pool helpers.
func TestPackageLevelDefault(t *testing.T) {
	b := Get(2048)
	if len(b) != 2048 {
		t.Fatalf("len = %d", len(b))
	}
	Put(b)
}

// TestRecycleAllocatesNothing: a warm Get/Put cycle allocates nothing —
// a bucket keeps each buffer behind a pointer, not a boxed slice header.
func TestRecycleAllocatesNothing(t *testing.T) {
	var p Pool
	p.Put(p.Get(4096))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(4096)) }); n != 0 {
		t.Fatalf("Get/Put allocated %v times per cycle, want 0", n)
	}
}
