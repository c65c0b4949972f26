package core

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// Small-payload buffering in the receive step.
const (
	// maxReusedSmallBuf caps the small-payload buffer kept across calls;
	// larger payloads get a one-off buffer.
	maxReusedSmallBuf = 256 * 1024
	// smallReadStep is the growth step of a one-off small-payload buffer.
	smallReadStep = 1 << 20
)

// streamState is the receive pipeline of one in-progress multi-buffer
// stream message. Its reception goroutine (the paper's reception thread)
// queues on order one result channel per group, in wire order, then reads
// the group and submits it to the shared worker pool, which decodes it
// into that channel. The message end or the error that ends the message
// goes into the last channel, behind every earlier group. The receive
// step takes the channels from order and their results in turn.
type streamState struct {
	// order holds the results the reception goroutine has claimed ahead
	// of the reader; its capacity, Parallelism, is the engine's receive
	// window.
	order chan chan decResult
	// head is a result taken from order that was not ready yet, and err
	// the sticky error that ended the message; both are the reader's.
	head chan decResult
	err  error
	// done is closed once, after cause is set, when Close or dropStream
	// abandons the message.
	done  chan struct{}
	once  sync.Once
	cause error
}

// oneBufferMsg is a stream message whose declared size fits one
// adaptation buffer. The pipeline would have nothing to overlap — the
// reception thread and the decode stage would hand each other a single
// group — so the receive step reads its frames and decodes its groups on
// the caller's goroutine, into pooled blocks. Guarded by rmu.
type oneBufferMsg struct {
	active bool
	asm    groupAssembler
	span   groupSpan
	// err is sticky, as the pipeline's is: every later call returns it
	// until the message is dropped.
	err error
	// held is the pooled block behind the span delivered last, returned
	// at the start of the next receive step.
	held []byte
}

// groupSpan follows the group in reception for its receive span: from
// its first frame off the socket to its last, with the wire bytes it
// carried.
type groupSpan struct {
	start time.Time
	wire  int
	level codec.Level
}

// completedGroup is one fully assembled compressed group ready to decode.
type completedGroup struct {
	level  codec.Level
	block  []byte
	rawLen int
	sum    uint32
}

// groupAssembler validates the frame sequence of a stream message and
// accumulates packet payloads into complete groups, each in a block of its
// own: a pool worker holds a group's block while the next group
// assembles, and a raw group's decoded bytes alias it.
//
// It bounds what a peer can make the receiver hold: a group's block may
// not exceed wire.MaxGroupBlock (ErrTooBig), nor, in a message of known
// size, the block its remaining raw bytes could compress to, and its
// groups may not carry more raw bytes than the header declared
// (ErrBadFrame). Both receive paths feed frames through it, so they fail
// the same input the same way.
type groupAssembler struct {
	inGroup bool
	level   codec.Level
	block   []byte
	// left is the raw bytes the message header still allows;
	// wire.UnknownTotal when it declared no size.
	left uint64
	// pooled takes each block from bufpool at its bound, so it never
	// grows; its owner returns it.
	pooled bool
}

func newGroupAssembler(total uint64, pooled bool) groupAssembler {
	return groupAssembler{left: total, pooled: pooled}
}

// blockLimit is the largest block the current group may carry, and the
// error a larger one fails with.
func (a *groupAssembler) blockLimit() (int, error) {
	if a.left < wire.MaxGroupRaw {
		return wire.BlockBound(int(a.left)), wire.ErrBadFrame
	}
	return wire.MaxGroupBlock, wire.ErrTooBig
}

// feed consumes one frame. At most one of the results is set: a completed
// group, the message-end signal, or a framing error; all unset means
// mid-group progress. A packet payload is copied; the frame may be
// reused once feed returns.
func (a *groupAssembler) feed(fr wire.Frame) (g *completedGroup, end bool, err error) {
	switch fr.Mark {
	case wire.MarkGroupBegin:
		if a.inGroup {
			return nil, false, fmt.Errorf("%w: nested group", wire.ErrBadFrame)
		}
		a.inGroup = true
		a.level = fr.Level
		if a.pooled {
			limit, _ := a.blockLimit()
			a.block = bufpool.Get(limit)[:0]
		}
	case wire.MarkPacket:
		if !a.inGroup {
			return nil, false, fmt.Errorf("%w: packet outside group", wire.ErrBadFrame)
		}
		limit, lerr := a.blockLimit()
		if len(a.block)+len(fr.Payload) > limit {
			return nil, false, fmt.Errorf("%w: group block over %d bytes", lerr, limit)
		}
		if cap(a.block)-len(a.block) < len(fr.Payload) {
			// Double, up to the limit: a block costs at most about twice
			// its final size in allocations, where append's gentler
			// growth of large slices costs five times.
			a.block = slices.Grow(a.block, min(max(len(fr.Payload), len(a.block)), limit-len(a.block)))
		}
		a.block = append(a.block, fr.Payload...)
	case wire.MarkGroupEnd:
		if !a.inGroup {
			return nil, false, fmt.Errorf("%w: group end outside group", wire.ErrBadFrame)
		}
		if a.left != wire.UnknownTotal {
			if uint64(fr.RawLen) > a.left {
				return nil, false, fmt.Errorf("%w: groups carry more raw bytes than the message declared", wire.ErrBadFrame)
			}
			a.left -= uint64(fr.RawLen)
		}
		a.inGroup = false
		g = &completedGroup{level: a.level, block: a.block, rawLen: fr.RawLen, sum: fr.Checksum}
		a.block = nil // the group owns its block from here on
		return g, false, nil
	case wire.MarkMsgEnd:
		if a.inGroup {
			return nil, false, fmt.Errorf("%w: message end inside group", wire.ErrBadFrame)
		}
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("%w: marker %d", wire.ErrBadFrame, fr.Mark)
	}
	return nil, false, nil
}

// release returns a pooled block still in assembly, if any.
func (a *groupAssembler) release() {
	if a.pooled && a.block != nil {
		bufpool.Put(a.block)
	}
	a.block = nil
}

// abort abandons the stream message with cause: the reception goroutine
// stops before it claims another result, and a waiting reader returns
// cause.
func (st *streamState) abort(cause error) {
	st.once.Do(func() {
		st.cause = cause
		close(st.done)
	})
}

// startStream starts the reception goroutine of a multi-buffer stream
// message declaring total raw bytes.
func (e *Engine) startStream(total uint64) *streamState {
	st := &streamState{
		order: make(chan chan decResult, e.opts.Parallelism),
		done:  make(chan struct{}),
	}
	go e.receiveStream(st, total)
	return st
}

// receiveStream is the reception thread: it claims a result on order,
// reads the next group into it and hands the group to a pool worker to
// decode, until the message ends, fails, or is abandoned. Reading group
// i+1 while a worker decodes group i is the receiver half of the paper's
// compression/communication overlap. Raw groups alias their blocks, so
// the blocks are not pooled.
func (e *Engine) receiveStream(st *streamState, total uint64) {
	asm := newGroupAssembler(total, false)
	var span groupSpan
	for {
		// An abandoned message is read no further, even while the window
		// has room.
		select {
		case <-st.done:
			return
		default:
		}
		rc := make(chan decResult, 1)
		select {
		case st.order <- rc:
		case <-st.done:
			return
		}
		g, err := e.readGroup(&asm, &span)
		if g == nil {
			rc <- decResult{end: err == nil, err: err}
			return
		}
		defaultPool.Submit(func() { rc <- e.decode(*g) })
	}
}

// ready reports whether the next result can be taken without waiting.
// Only the reader receives from order and head, so a result it sees
// stays there.
func (st *streamState) ready() bool {
	if st.head == nil {
		if len(st.order) == 0 {
			return false
		}
		st.head = <-st.order
	}
	return len(st.head) > 0
}

// take waits for the next result in wire order, or returns the cause of
// an abandoned message.
func (st *streamState) take() decResult {
	if st.head == nil {
		select {
		case st.head = <-st.order:
		case <-st.done:
			return decResult{err: st.cause}
		}
	}
	select {
	case r := <-st.head:
		st.head = nil
		return r
	case <-st.done:
		return decResult{err: st.cause}
	}
}

// readGroup reads frames until a group completes and returns it, or nil
// at the message end, or the error that ends the message, releasing the
// block in assembly. Both receive paths take their groups from it.
func (e *Engine) readGroup(asm *groupAssembler, span *groupSpan) (*completedGroup, error) {
	for {
		f, err := e.dec.ReadFrame()
		if err != nil {
			asm.release()
			return nil, err
		}
		e.countFrame(f, span)
		g, end, err := asm.feed(f)
		if err != nil {
			asm.release()
			return nil, err
		}
		if g != nil || end {
			return g, nil
		}
	}
}

// countFrame adds one received frame to the wire-byte count and, when
// tracing, to its group's receive span, recorded at the group's end.
func (e *Engine) countFrame(f wire.Frame, span *groupSpan) {
	e.stats.wireReceived.Add(int64(f.Len()))
	tr := e.opts.FlowTracer
	if !tr.Enabled() {
		return
	}
	switch f.Mark {
	case wire.MarkGroupBegin:
		span.start = tr.Now()
		span.wire = f.Len()
		span.level = f.Level
	case wire.MarkPacket:
		span.wire += f.Len()
	case wire.MarkGroupEnd:
		if !span.start.IsZero() {
			span.wire += f.Len()
			e.recordRecvSpan(obs.StageReceive, span.start, tr.Now().Sub(span.start), span.wire, int(span.level))
			span.start = time.Time{}
		}
	}
}

// next is the one receive step behind Read, ReadChunk and ReceiveMessage;
// callers hold rmu. It returns the next span of the incoming byte stream —
// one decoded group, or one whole small payload — and whether that span
// ended a message (a stream message ends with an empty span). It reads a
// message header only when no stream message is in progress. With block
// false it never waits: between messages, or while the stream message has
// nothing ready, it returns an empty span with end false.
//
// The span is valid only until the next call: it may alias smallBuf or a
// decoded group that the next call releases.
func (e *Engine) next(block bool) (span []byte, end bool, err error) {
	if e.closed.Load() {
		return nil, false, ErrClosed
	}
	if e.abandoned != nil {
		return nil, false, e.abandoned
	}
	e.releaseHeld()
	st := e.loadCur()
	if st == nil && !e.one.active {
		if !block {
			return nil, false, nil
		}
		h, err := e.dec.ReadMsgHeader()
		if err != nil {
			return nil, false, err
		}
		if h.Kind == wire.KindSmall {
			span, err := e.readSmall(h)
			return span, err == nil, err
		}
		e.stats.wireReceived.Add(wire.StreamHeaderLen)
		e.resetRecvTrace()
		if h.TotalRaw <= uint64(e.opts.BufferSize) {
			e.one = oneBufferMsg{active: true, asm: newGroupAssembler(h.TotalRaw, true)}
		} else {
			st = e.startStream(h.TotalRaw)
			e.storeCur(st)
		}
	}
	if e.one.active {
		if !block {
			return nil, false, nil
		}
		return e.nextOneBuffer()
	}
	for st.err == nil {
		if !block && !st.ready() {
			return nil, false, nil
		}
		r := st.take()
		if r.err != nil {
			st.err = r.err
			break
		}
		if r.end {
			e.storeCur(nil)
			e.stats.msgsReceived.Add(1)
			return nil, true, nil
		}
		e.noteDelivered(r)
		if len(r.data) > 0 {
			return r.data, false, nil
		}
		// An empty group adds nothing to the byte stream.
	}
	return nil, false, st.err
}

// nextOneBuffer is the receive step of a one-buffer stream message: it
// reads frames until a group completes, decodes and verifies it here, and
// returns it, or the message end, or the message's error.
func (e *Engine) nextOneBuffer() ([]byte, bool, error) {
	m := &e.one
	for m.err == nil {
		g, err := e.readGroup(&m.asm, &m.span)
		if err != nil {
			m.err = err
			break
		}
		if g == nil {
			e.one = oneBufferMsg{}
			e.stats.msgsReceived.Add(1)
			return nil, true, nil
		}
		r := e.decode(*g)
		if r.err == nil && len(r.data) > 0 && g.level == codec.MinLevel {
			m.held = g.block // a raw group's bytes are its block
		} else {
			bufpool.Put(g.block)
		}
		if r.err != nil {
			m.err = r.err
			break
		}
		e.noteDelivered(r)
		if len(r.data) > 0 {
			return r.data, false, nil
		}
	}
	return nil, false, m.err
}

// releaseHeld returns the block behind the span the last receive step
// delivered.
func (e *Engine) releaseHeld() {
	if e.one.held != nil {
		bufpool.Put(e.one.held)
		e.one.held = nil
	}
}

// noteDelivered counts one decoded group handed to the consumer and
// records its deliver span: decompression done to the consumer taking
// the group in wire order.
func (e *Engine) noteDelivered(g decResult) {
	e.stats.rawReceived.Add(int64(g.rawLen))
	if !g.doneAt.IsZero() && e.opts.FlowTracer.Enabled() {
		e.recordRecvSpan(obs.StageDeliver, g.doneAt, e.opts.FlowTracer.Now().Sub(g.doneAt), g.rawLen, g.level)
	}
}

// readSmall receives one small message's payload, counting it and
// recording its trace spans. Payloads up to maxReusedSmallBuf land in
// smallBuf. Larger ones get a one-off buffer grown smallReadStep at a
// time as bytes arrive, so a peer-announced length (up to
// wire.MaxGroupRaw) costs memory in proportion to the bytes actually
// sent and never stays pinned for the engine's lifetime.
func (e *Engine) readSmall(h wire.MsgHeader) ([]byte, error) {
	e.stats.wireReceived.Add(int64(wire.SmallOverhead) + int64(h.RawLen))
	tr := e.opts.FlowTracer
	var t0 time.Time
	if tr.Enabled() {
		// Small messages carry their own (possible) trace context in the
		// payload: a fresh message means a fresh pending set.
		e.resetRecvTrace()
		t0 = tr.Now()
	}
	n := int(h.RawLen)
	var p []byte
	if n <= maxReusedSmallBuf {
		if cap(e.smallBuf) < n {
			e.smallBuf = make([]byte, n)
		}
		p = e.smallBuf[:0]
	}
	for len(p) < n {
		// Each step reads the next step bytes of the same payload.
		step := min(n-len(p), smallReadStep)
		p = slices.Grow(p, step)
		part := wire.MsgHeader{Kind: wire.KindSmall, RawLen: uint32(step)}
		if _, err := e.dec.ReadSmallPayload(part, p[len(p):len(p)+step]); err != nil {
			return nil, err
		}
		p = p[:len(p)+step]
	}
	e.stats.msgsReceived.Add(1)
	e.stats.rawReceived.Add(int64(n))
	if tr.Enabled() {
		now := tr.Now()
		e.recordRecvSpan(obs.StageReceive, t0, now.Sub(t0), int(wire.SmallOverhead)+n, 0)
		e.recordRecvSpan(obs.StageDeliver, now, 0, n, 0)
	}
	return p, nil
}

// dropStream abandons the in-progress stream message, if any, after a
// receive failed with err. The rest of the message stays unread, so the
// receive side fails closed: every later receive returns ErrAbandoned,
// wrapping err, until Close. A reception goroutine still reading the
// message stays the reader's only user; abort stops it before it claims
// another result (it would otherwise wait on a full order channel
// forever, unreachable even by Close), and Close ends a read it is
// blocked in.
func (e *Engine) dropStream(err error) {
	st := e.loadCur()
	if st == nil && !e.one.active {
		return
	}
	if st != nil {
		st.abort(err)
		e.storeCur(nil)
	}
	e.releaseHeld()
	e.one.asm.release()
	e.one = oneBufferMsg{}
	e.abandoned = fmt.Errorf("%w: %w", ErrAbandoned, err)
}

// Read implements the adoc_read semantics: it fills p with the next bytes
// of the incoming byte stream, blocking until at least one byte is
// available, and returns the count. Message boundaries are not preserved —
// "a sender can send 100 MB, and the receiver can perform two reads one of
// 60 MB and one of 40 MB" (paper §4.1) — leftovers stay buffered for the
// next Read.
func (e *Engine) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	n, _ := e.recvBuf.Read(p)
	for n < len(p) {
		// Block only while p is still empty; after that, top up from what
		// has already arrived.
		span, end, err := e.next(n == 0)
		if err != nil {
			if n > 0 {
				// Bytes already decoded are still valid; deliver them
				// first, surface the error on the next call.
				break
			}
			return 0, e.normalizeErr(err)
		}
		if len(span) == 0 && !end {
			break // top-up: nothing more has arrived
		}
		c := copy(p[n:], span)
		e.recvBuf.Write(span[c:])
		n += c
	}
	return n, nil
}

// ReadChunk returns the next contiguous span of the incoming byte stream
// without copying it through the engine's receive buffer: one decoded
// buffer group (or one small-message payload) per call, delivered exactly
// as the interleaved groups arrive off the wire. It blocks until at least
// one byte is available. Message boundaries are not preserved, matching
// Read.
//
// The returned span is only valid until the next Read/ReadChunk/
// ReceiveMessage call on this engine — it may alias internal buffers that
// the next call reuses. This is the delivery primitive for consumers that
// fan bytes out to their own per-stream queues (the adocmux demux loop):
// they parse and copy out what they keep before asking for the next
// chunk, so the bytes move decode-stage → consumer queue with no
// intermediate buffering.
func (e *Engine) ReadChunk() ([]byte, error) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.recvBuf.Len() > 0 {
		// Leftovers from a partial Read: drain them first so the two
		// consumption styles compose.
		return e.recvBuf.Next(e.recvBuf.Len()), nil
	}
	for {
		span, _, err := e.next(true)
		if err != nil {
			return nil, e.normalizeErr(err)
		}
		if len(span) > 0 {
			return span, nil
		}
	}
}

// ReceiveMessage consumes exactly one AdOC message and writes its raw
// content to w, returning the byte count — the adoc_receive_file
// equivalent. It must be called on a message boundary: mixing it with a
// partial Read of another message is an error. Spans go straight from the
// receive step to w; the engine's own receive buffer is never involved.
func (e *Engine) ReceiveMessage(w io.Writer) (int64, error) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if e.recvBuf.Len() > 0 || e.loadCur() != nil || e.one.active {
		return 0, ErrMidMessage
	}
	var total int64
	for {
		span, end, err := e.next(true)
		if err != nil {
			e.dropStream(err)
			return total, e.normalizeErr(err)
		}
		if len(span) > 0 {
			n, err := w.Write(span)
			total += int64(n)
			if err != nil {
				e.dropStream(err)
				return total, err
			}
		}
		if end {
			return total, nil
		}
	}
}

// normalizeErr maps low-level failures after Close to ErrClosed so callers
// see one stable sentinel.
func (e *Engine) normalizeErr(err error) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return err
}
