// Package fifo provides the bounded FIFO queue shared between the AdOC
// compression and emission threads (paper §3.1). It is the send side's
// only queue; the receive side hands groups to its reader over channels
// and needs none. Each item carries a weight, and the queue is bounded
// by, and reports, the total weight of its items rather than their
// number: the sender queues one framed buffer per item, weighted by its
// packets, so the occupancy n and the variation δ of n between level
// updates — the only signals the adaptive controller uses (paper
// Figure 2) — still count stored packets.
//
// The queue is bounded so that a stalled link cannot grow sender memory
// without limit; a blocked producer only ever raises the occupancy signal,
// which Figure 2 already interprets as "time available to compress more".
package fifo

import (
	"errors"
	"io"
	"sync"
)

// ErrClosed is returned by Push after CloseSend or Abort.
var ErrClosed = errors.New("fifo: queue closed")

// Queue is a bounded, thread-safe FIFO of weighted items. The zero value
// is not usable; use New.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond

	items    []item[T] // ring buffer; every weight is at least 1, so capacity items always fit
	head     int
	count    int // items queued
	weight   int // their total weight
	capacity int

	sendClosed bool  // no more pushes; pops drain remaining items
	aborted    bool  // terminal failure; pops fail immediately
	err        error // abort cause (nil for clean CloseSend)

	highWater int
}

type item[T any] struct {
	v      T
	weight int
}

// New returns an empty queue holding items of at most capacity total
// weight.
func New[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("fifo: capacity must be positive")
	}
	q := &Queue[T]{items: make([]item[T], capacity), capacity: capacity}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// Push appends v with the given weight (at least 1), blocking while the
// queue holds items and v would take their total weight past the
// capacity. An item heavier than the capacity enters an empty queue, so
// no weight blocks forever. Push returns ErrClosed after CloseSend, or
// the abort cause after Abort.
func (q *Queue[T]) Push(v T, weight int) error {
	if weight < 1 {
		panic("fifo: weight must be positive")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count > 0 && q.weight+weight > q.capacity && !q.sendClosed && !q.aborted {
		q.notFull.Wait()
	}
	if q.aborted {
		if q.err != nil {
			return q.err
		}
		return ErrClosed
	}
	if q.sendClosed {
		return ErrClosed
	}
	q.items[(q.head+q.count)%len(q.items)] = item[T]{v, weight}
	q.count++
	q.weight += weight
	q.highWater = max(q.highWater, q.weight)
	q.notEmpty.Signal()
	return nil
}

// Pop removes and returns the oldest item, blocking while the queue is
// empty. After CloseSend it drains the remaining items and then returns
// io.EOF. After Abort it returns the abort cause immediately, discarding
// any queued items.
func (q *Queue[T]) Pop() (T, error) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.sendClosed && !q.aborted {
		q.notEmpty.Wait()
	}
	if q.aborted {
		if q.err != nil {
			return zero, q.err
		}
		return zero, ErrClosed
	}
	if q.count == 0 {
		return zero, io.EOF // sendClosed and drained
	}
	it := q.items[q.head]
	q.items[q.head] = item[T]{} // release the reference for the GC
	q.head = (q.head + 1) % len(q.items)
	q.count--
	q.weight -= it.weight
	// Producers wait for different weights: wake them all to re-check.
	q.notFull.Broadcast()
	return it.v, nil
}

// CloseSend marks the producer side finished. Blocked and future pushes
// fail with ErrClosed; consumers drain the queue and then see io.EOF.
func (q *Queue[T]) CloseSend() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.sendClosed || q.aborted {
		return
	}
	q.sendClosed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Abort terminates the queue with cause err (may be nil): queued items are
// discarded and both sides unblock with an error. Abort after CloseSend is
// allowed and turns the remaining drain into a failure, which is what the
// emitter needs when the link dies mid-stream.
func (q *Queue[T]) Abort(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.aborted {
		return
	}
	q.aborted = true
	q.err = err
	// Drop references so the GC can reclaim payloads immediately.
	for i := 0; i < q.count; i++ {
		q.items[(q.head+i)%len(q.items)] = item[T]{}
	}
	q.count = 0
	q.weight = 0
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Len returns the current occupancy n: the total weight of the queued
// items — for the sender, the "number of stored packets" of paper
// Figure 2.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.weight
}

// HighWater returns the highest occupancy ever reached, in weight.
func (q *Queue[T]) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.highWater
}
