package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"adoc/internal/obs"
)

// WorkerPool is a process-wide pool of compression/decompression workers
// that every engine submits buffer jobs to, instead of each engine
// spawning its own Parallelism goroutines per message. One pool sized to
// GOMAXPROCS serves any number of connections: CPU work is bounded by the
// cores that exist, while each engine's in-flight window (its Parallelism
// option) bounds how many jobs it may have queued at once.
//
// Jobs never block on other jobs — each compresses or decompresses one
// buffer and delivers its result into a per-engine buffered channel — so
// a fixed worker count cannot deadlock no matter how many engines share
// the pool.
//
// The pool starts lazily on first Submit and its workers live for the
// process lifetime (they are shared infrastructure, like the GC's
// background workers, not per-connection state).
type WorkerPool struct {
	size      int
	once      sync.Once
	jobs      chan func()
	submitted atomic.Int64
}

// newWorkerPool returns a pool of size workers; size <= 0 selects
// GOMAXPROCS. The workers are not started until the first Submit.
func newWorkerPool(size int) *WorkerPool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	// The queue is allocated here, not in start, so metric callbacks can
	// read its depth without racing the lazy worker launch.
	return &WorkerPool{size: size, jobs: make(chan func(), size)}
}

// Size returns the worker count.
func (p *WorkerPool) Size() int { return p.size }

// start launches the workers exactly once. The job queue holds one
// pending job per worker beyond the ones being executed; when every
// engine's in-flight window is spoken for, Submit blocks, which is the
// backpressure that keeps a thousand eager senders from buffering a
// thousand compression jobs.
func (p *WorkerPool) start() {
	p.once.Do(func() {
		for i := 0; i < p.size; i++ {
			go p.worker()
		}
	})
}

// worker executes jobs until the process exits.
func (p *WorkerPool) worker() {
	for f := range p.jobs {
		f()
	}
}

// Submit queues f for execution on a pool worker, blocking while the
// queue is full. f must not block on the completion of another pool job.
func (p *WorkerPool) Submit(f func()) {
	p.start()
	p.submitted.Add(1)
	p.jobs <- f
}

// Submitted returns how many jobs have been submitted over the pool's
// lifetime.
func (p *WorkerPool) Submitted() int64 { return p.submitted.Load() }

// QueueDepth returns how many submitted jobs are waiting for a worker
// (not counting jobs currently executing).
func (p *WorkerPool) QueueDepth() int { return len(p.jobs) }

// Registry metric families the worker pool publishes.
const (
	MetricPoolWorkers    = "adoc_workerpool_workers"
	MetricPoolQueueDepth = "adoc_workerpool_queue_depth"
	MetricPoolJobs       = "adoc_workerpool_jobs_total"
)

// RegisterMetrics publishes the pool's health on reg as callback-backed
// series. Idempotent: re-registering re-points the callbacks, so the last
// pool bound to a registry is the one rendered — in practice the
// process-wide pool.
func (p *WorkerPool) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc(MetricPoolWorkers, "Compression worker count.",
		func() float64 { return float64(p.Size()) })
	reg.GaugeFunc(MetricPoolQueueDepth, "Jobs waiting for a worker.",
		func() float64 { return float64(p.QueueDepth()) })
	reg.CounterFunc(MetricPoolJobs, "Jobs submitted over the pool lifetime.",
		func() float64 { return float64(p.Submitted()) })
}

// defaultPool is the process-wide pool every engine submits to.
var defaultPool = newWorkerPool(0)

// DefaultWorkerPool returns the process-wide shared pool.
func DefaultWorkerPool() *WorkerPool { return defaultPool }
