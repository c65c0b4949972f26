package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkerPoolSize pins the sizing rule: explicit sizes pass through,
// non-positive selects GOMAXPROCS.
func TestWorkerPoolSize(t *testing.T) {
	if s := newWorkerPool(3).Size(); s != 3 {
		t.Errorf("Size() = %d, want 3", s)
	}
	if s := newWorkerPool(0).Size(); s != runtime.GOMAXPROCS(0) {
		t.Errorf("Size() = %d, want GOMAXPROCS %d", s, runtime.GOMAXPROCS(0))
	}
	if DefaultWorkerPool() == nil || DefaultWorkerPool() != DefaultWorkerPool() {
		t.Error("DefaultWorkerPool must be one stable process-wide pool")
	}
}

// TestWorkerPoolRunsEverySubmission floods a small pool from many
// goroutines — far more in-flight submitters than workers, the C100k
// shape — and requires every job to run exactly once.
func TestWorkerPoolRunsEverySubmission(t *testing.T) {
	p := newWorkerPool(2)
	const submitters, perSubmitter = 16, 100
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jobs sync.WaitGroup
			for j := 0; j < perSubmitter; j++ {
				jobs.Add(1)
				p.Submit(func() {
					ran.Add(1)
					jobs.Done()
				})
			}
			jobs.Wait()
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != submitters*perSubmitter {
		t.Fatalf("ran %d jobs, want %d", got, submitters*perSubmitter)
	}
}

// TestWorkerPoolLazyStart checks that construction alone spawns nothing:
// the workers must not exist until the first Submit.
func TestWorkerPoolLazyStart(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newWorkerPool(8)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("newWorkerPool spawned %d goroutines before any Submit", n-before)
	}
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	<-done
}

// TestEnginesShareOnePool sends concurrently over many engines, which
// all submit to the one process-wide pool, and checks the transfers stay
// intact — in-order reassembly must hold when unrelated connections'
// jobs interleave on the same workers.
func TestEnginesShareOnePool(t *testing.T) {
	o := parallelOptions(4)
	before := DefaultWorkerPool().Submitted()

	const conns = 8
	want := compressibleData(64 * 1024)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e1, e2 := pipePair(t, o)
			done := make(chan error, 1)
			go func() {
				_, err := e1.WriteMessage(want)
				done <- err
			}()
			got := make([]byte, len(want))
			if err := readFullFrom(e2, got); err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			if err := <-done; err != nil {
				t.Errorf("conn %d write: %v", i, err)
				return
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("conn %d: byte %d differs", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Every engine compressed and decompressed its message on the pool.
	if jobs := DefaultWorkerPool().Submitted() - before; jobs < 2*conns {
		t.Fatalf("%d jobs reached the shared pool for %d compressed messages", jobs, conns)
	}
}

func readFullFrom(e *Engine, p []byte) error {
	for off := 0; off < len(p); {
		n, err := e.Read(p[off:])
		off += n
		if err != nil {
			return err
		}
	}
	return nil
}
