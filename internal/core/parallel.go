// The AdOC pipeline, run on the process-wide WorkerPool. The writer
// splits a message into adaptation buffers and chooses each buffer's
// level as it submits the buffer; pool workers compress and frame
// buffers; an in-order reassembly stage feeds the emission goroutine's
// FIFO one framed buffer at a time, so the wire stream keeps buffer order
// and framing whatever order the workers finish in, and the emitter
// writes each buffer with one Write. The receive side mirrors this
// without a FIFO: its reception goroutine hands each group to the pool
// and queues the group's result channel in wire order for the reader
// (recv.go).
//
// Parallelism is the engine's in-flight window — how many adaptation
// buffers (or receive groups) it may have submitted at once — not a
// private worker count: CPU concurrency across all engines is the shared
// pool's size. Parallelism 1 is the paper's sequential pipeline as the
// window-of-1 case of the same code.
//
// Paper Figure 2 drives the level from the occupancy of the one FIFO of
// packets between the compression thread and the emission thread. The
// FIFO here weighs each framed buffer by its packets, so its length still
// counts packets. Buffers also wait outside it — submitted, compressing,
// in reassembly, or being written — so the occupancy passed to
// LevelForNextBuffer is the FIFO's length plus, for every buffer
// submitted but not yet in the FIFO, its raw size in packets, and for the
// buffer the emitter is writing, its packets. Counting at submit rather
// than as workers produce frames means the controller sees the same
// queue whatever the window size and however fast the workers run.

package core

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// compResult is one compressed buffer, framed into its own sink, plus the
// entropy probe's verdict, applied to the controller by the reassembly
// stage so feedback arrives in buffer order rather than worker
// completion order.
type compResult struct {
	sink  frameSink
	raw   int // raw bytes the sink carries
	class contentClass
	err   error
}

// rawPackets is the occupancy a buffer of n raw bytes adds while it is in
// flight ahead of the emission FIFO: its size in FIFO packets, before
// compression shrinks it.
func (e *Engine) rawPackets(n int) int64 {
	return int64((n + e.opts.PacketSize - 1) / e.opts.PacketSize)
}

// compressJob runs on a pool worker: classify one adaptation buffer,
// compress and frame it at its submit-time level behind head (the stream
// header, for a message's first buffer), release its backing buffers,
// and deliver the result to the engine's reassembly stage. For sampled
// messages the worker records the buffer's queue wait (submitAt to job
// start) and its compress span.
func (e *Engine) compressJob(buf, data, head []byte, level codec.Level, res chan<- compResult, tc obs.TraceContext, submitAt time.Time) {
	tr := e.opts.FlowTracer
	var start time.Time
	if tc.Sampled {
		start = tr.Now()
		tr.Record(tc, 0, obs.StageQueue, submitAt, start.Sub(submitAt), len(data), int(level))
	}
	level, class := e.classifyBuffer(level, data)
	var scratch []byte
	if level == codec.LZF {
		scratch = bufpool.Get(e.opts.BufferSize)
	}
	var sink frameSink
	sink.open(len(head) + wire.GroupLen(len(data), e.opts.PacketSize))
	sink.buf = append(sink.buf, head...)
	err := e.compressBufferAt(&sink, level, data, scratch)
	raw := len(data)
	if tc.Sampled {
		tr.Record(tc, 0, obs.StageCompress, start, tr.Now().Sub(start), raw, int(level))
	}
	if scratch != nil {
		bufpool.Put(scratch) // frames copied out of it already
	}
	bufpool.Put(buf)
	if err != nil {
		sink.release()
	}
	res <- compResult{sink: sink, raw: raw, class: class, err: err}
}

// sendPipeline runs the adaptive send pipeline for the rest of a message:
// the caller goroutine reads buffers and assigns levels, pool workers
// compress and frame them, the reassembly goroutine restores buffer
// order into the emission FIFO, and runEmitter writes each buffer from
// the FIFO onto the socket. remaining < 0 means until EOF. head, the
// stream header while unsent, rides in front of the first buffer; on
// success it went out unless no buffer did (delivered is 0).
func (e *Engine) sendPipeline(src io.Reader, remaining int64, head []byte) (delivered, wireBytes int64, err error) {
	if remaining == 0 {
		return 0, 0, nil
	}
	tc := e.sendTC
	tr := e.opts.FlowTracer
	q := fifo.New[frameSink](DefaultQueueCapacity)
	// backlog holds the raw packet count of every buffer submitted but not
	// yet in q, where q.Len counts its packet frames instead, and the
	// packet frames of the buffer the emitter is writing.
	var backlog atomic.Int64
	res := make(chan emitResult, 1)
	go e.runEmitter(q, &backlog, res, tc)

	// order carries one result channel per buffer in submit order; its
	// capacity is the engine's in-flight window (Parallelism) and bounds
	// both reassembly memory and how many jobs this engine can have queued
	// on the shared pool at once.
	order := make(chan chan compResult, e.opts.Parallelism)

	// Reassembly: pop result channels in submit order and feed the
	// emission FIFO. On the first failure it aborts the FIFO and keeps
	// draining so neither the reader nor the pool workers can block.
	var failed atomic.Bool
	reasmDone := make(chan error, 1)
	go func() {
		var firstErr error
		for rc := range order {
			r := <-rc
			if firstErr != nil {
				r.sink.release()
				continue
			}
			if r.err != nil {
				firstErr = r.err
			} else {
				// Probe feedback in buffer order: the run counter must see
				// the stream's sequence, not the workers' finish order.
				e.noteContent(r.class)
				if err := q.Push(r.sink, r.sink.packets); err != nil {
					r.sink.release()
					firstErr = err
				}
				backlog.Add(-e.rawPackets(r.raw))
			}
			if firstErr != nil {
				failed.Store(true)
				q.Abort(firstErr)
			}
		}
		reasmDone <- firstErr
	}()

	var sendErr error
	for remaining != 0 && !failed.Load() {
		buf := bufpool.Get(e.opts.BufferSize)
		want := int64(len(buf))
		if remaining > 0 && remaining < want {
			want = remaining
		}
		n, rerr := io.ReadFull(src, buf[:want])
		if n > 0 {
			// The level is chosen here, against the whole-pipeline
			// occupancy, and travels with the buffer.
			level := e.ctrl.LevelForNextBuffer(q.Len() + int(backlog.Load()))
			rc := make(chan compResult, 1)
			// The wait for an in-flight slot is the writer's enqueue
			// stage; the queue stage (submit to job start) is measured by
			// the worker against submitAt.
			var eq time.Time
			if tc.Sampled {
				eq = tr.Now()
			}
			order <- rc
			var submitAt time.Time
			if tc.Sampled {
				submitAt = tr.Now()
				tr.Record(tc, 0, obs.StageEnqueue, eq, submitAt.Sub(eq), n, int(level))
			}
			backlog.Add(e.rawPackets(n))
			data, h := buf[:n], head
			head = nil
			defaultPool.Submit(func() { e.compressJob(buf, data, h, level, rc, tc, submitAt) })
			if remaining > 0 {
				remaining -= int64(n)
			}
		} else {
			bufpool.Put(buf)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			if remaining > 0 {
				sendErr = fmt.Errorf("adoc: source ended %d bytes early: %w", remaining, io.ErrUnexpectedEOF)
			}
			break
		}
		if rerr != nil {
			sendErr = fmt.Errorf("adoc: reading source: %w", rerr)
			break
		}
	}
	// Every submitted buffer already has its result channel queued in
	// order, so closing it here lets the reassembly stage drain exactly
	// the jobs that were submitted (blocking on each until its pool worker
	// delivers).
	close(order)
	pipeErr := <-reasmDone

	if sendErr != nil {
		q.Abort(sendErr)
	} else if pipeErr == nil {
		q.CloseSend()
	} // on pipeErr the reassembly stage already aborted the FIFO
	r := <-res
	if hw := int64(q.HighWater()); hw > e.stats.queueHigh.Load() {
		e.stats.queueHigh.Store(hw)
	}
	switch {
	case sendErr != nil:
		return r.rawDelivered, r.wireBytes, sendErr
	case pipeErr != nil:
		return r.rawDelivered, r.wireBytes, pipeErr
	}
	return r.rawDelivered, r.wireBytes, r.err
}

// decResult is one decoded group, the message-end marker, or the error
// that ends the stream, taken in wire order by the receive step. doneAt,
// when set, is the instant the group's decompression finished; the gap
// until the consumer takes it is the in-order delivery wait.
type decResult struct {
	data   []byte
	rawLen int
	end    bool
	err    error
	doneAt time.Time
	level  int
}

// decodeGroup expands and verifies one assembled group on a pool worker.
func (e *Engine) decodeGroup(g completedGroup) decResult {
	raw, err := codec.Decompress(g.level, g.block, g.rawLen)
	if err != nil {
		return decResult{err: err}
	}
	if wire.Checksum(raw) != g.sum {
		return decResult{err: wire.ErrChecksum}
	}
	return decResult{data: raw, rawLen: g.rawLen}
}

// decode is decodeGroup, traced when the engine has a FlowTracer.
func (e *Engine) decode(g completedGroup) decResult {
	if e.opts.FlowTracer.Enabled() {
		return e.decodeGroupTraced(g)
	}
	return e.decodeGroup(g)
}

// decodeGroupTraced is decodeGroup with a decompress span recorded against
// the stream's adopted (or pending) receive trace, plus the completion
// stamp the delivery stage measures its wait from.
func (e *Engine) decodeGroupTraced(g completedGroup) decResult {
	t0 := e.opts.FlowTracer.Now()
	r := e.decodeGroup(g)
	done := e.opts.FlowTracer.Now()
	if r.err == nil {
		e.recordRecvSpan(obs.StageDecompress, t0, done.Sub(t0), r.rawLen, int(g.level))
		r.doneAt = done
		r.level = int(g.level)
	}
	return r
}
