package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
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

// recvFrame is a decoded frame with its payload copied out of the wire
// reader's scratch buffer, as stored in the reception FIFO.
type recvFrame struct {
	mark     byte
	level    codec.Level
	payload  []byte
	rawLen   int
	checksum uint32
}

// streamState is the receive pipeline for one in-progress stream message:
// a reception goroutine (the paper's reception thread) pushes frames into
// a bounded FIFO; the decode pipeline (assembler, worker pool, in-order
// collector) turns them into groups, and decoded holds its output for the
// receive step.
type streamState struct {
	frames  *fifo.Queue[recvFrame]
	decoded *fifo.Queue[decResult]
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
type groupAssembler struct {
	inGroup bool
	level   codec.Level
	block   []byte
}

// feed consumes one frame. At most one of the results is set: a completed
// group, the message-end signal, or a framing error; all unset means
// mid-group progress.
func (a *groupAssembler) feed(fr recvFrame) (g *completedGroup, end bool, err error) {
	switch fr.mark {
	case wire.MarkGroupBegin:
		if a.inGroup {
			return nil, false, fmt.Errorf("%w: nested group", wire.ErrBadFrame)
		}
		a.inGroup = true
		a.level = fr.level
	case wire.MarkPacket:
		if !a.inGroup {
			return nil, false, fmt.Errorf("%w: packet outside group", wire.ErrBadFrame)
		}
		a.block = append(a.block, fr.payload...)
	case wire.MarkGroupEnd:
		if !a.inGroup {
			return nil, false, fmt.Errorf("%w: group end outside group", wire.ErrBadFrame)
		}
		a.inGroup = false
		g = &completedGroup{level: a.level, block: a.block, rawLen: fr.rawLen, sum: fr.checksum}
		a.block = nil // the group owns its block from here on
		return g, false, nil
	case wire.MarkMsgEnd:
		if a.inGroup {
			return nil, false, fmt.Errorf("%w: message end inside group", wire.ErrBadFrame)
		}
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("%w: marker %d", wire.ErrBadFrame, fr.mark)
	}
	return nil, false, nil
}

// abort terminates the stream's queues so blocked producers and consumers
// unblock with err.
func (st *streamState) abort(err error) {
	st.frames.Abort(err)
	st.decoded.Abort(err)
}

// startStream launches the reception thread and the decode pipeline for a
// stream message.
func (e *Engine) startStream() *streamState {
	e.resetRecvTrace()
	st := &streamState{
		frames:  fifo.New[recvFrame](DefaultQueueCapacity),
		decoded: fifo.New[decResult](2 * e.opts.Parallelism),
	}
	go e.runDecodePipeline(st)
	go e.receiveLoop(st)
	return st
}

// receiveLoop is the reception thread: it reads frames off the socket and
// queues them until the message ends or the connection fails. Overlapping
// this read loop with decompression in the consumer is the receiver half
// of the paper's compression/communication overlap.
func (e *Engine) receiveLoop(st *streamState) {
	tr := e.opts.FlowTracer
	traced := tr.Enabled()
	var groupStart time.Time
	var groupWire int
	var groupLevel codec.Level
	for {
		f, err := e.dec.ReadFrame()
		if err != nil {
			// Frames already queued are valid; deliver them before the
			// error surfaces.
			st.frames.CloseSendWithError(err)
			return
		}
		fr := recvFrame{mark: f.Mark, level: f.Level, rawLen: f.RawLen, checksum: f.Checksum}
		// Frame overheads come from the wire constants — never literal byte
		// counts — so receive stats track the protocol by construction.
		switch f.Mark {
		case wire.MarkPacket:
			// The copy out of the wire reader's scratch comes from the
			// shared pool; the consumer recycles it after group assembly.
			fr.payload = bufpool.Get(len(f.Payload))
			copy(fr.payload, f.Payload)
			e.stats.wireReceived.Add(int64(wire.FramePacketOverhead + len(f.Payload)))
			if traced {
				groupWire += wire.FramePacketOverhead + len(f.Payload)
			}
		case wire.MarkGroupBegin:
			e.stats.wireReceived.Add(wire.FrameGroupBeginLen)
			if traced {
				groupStart = tr.Now()
				groupWire = int(wire.FrameGroupBeginLen)
				groupLevel = f.Level
			}
		case wire.MarkGroupEnd:
			e.stats.wireReceived.Add(wire.FrameGroupEndLen)
			if traced && !groupStart.IsZero() {
				// One receive span per group: first frame off the socket to
				// the group's last frame, with the wire bytes it carried.
				groupWire += int(wire.FrameGroupEndLen)
				e.recordRecvSpan(obs.StageReceive, groupStart, tr.Now().Sub(groupStart), groupWire, int(groupLevel))
				groupStart = time.Time{}
			}
		case wire.MarkMsgEnd:
			e.stats.wireReceived.Add(wire.FrameMsgEndLen)
		}
		if err := st.frames.Push(fr); err != nil {
			return // consumer or Close aborted the queue
		}
		if f.Mark == wire.MarkMsgEnd {
			st.frames.CloseSend()
			return
		}
	}
}

// next is the one receive step behind Read, ReadChunk and ReceiveMessage;
// callers hold rmu. It returns the next span of the incoming byte stream —
// one decoded group, or one whole small payload — and whether that span
// ended a message (a stream message ends with an empty span). It reads a
// message header only when no stream message is in progress. With block
// false it never waits: between messages, or while the stream pipeline
// has nothing ready, it returns an empty span with end false.
//
// The span is valid only until the next call: it may alias smallBuf or a
// decoded group that the next call releases.
func (e *Engine) next(block bool) (span []byte, end bool, err error) {
	if e.closed.Load() {
		return nil, false, ErrClosed
	}
	st := e.loadCur()
	if st == nil {
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
		st = e.startStream()
		e.storeCur(st)
	}
	for {
		var g decResult
		if block {
			if g, err = st.decoded.Pop(); err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, false, err
			}
		} else {
			var ok bool
			if g, ok = st.decoded.TryPop(); !ok {
				return nil, false, nil
			}
		}
		if g.end {
			e.storeCur(nil)
			e.stats.msgsReceived.Add(1)
			return nil, true, nil
		}
		e.stats.rawReceived.Add(int64(g.rawLen))
		if !g.doneAt.IsZero() && e.opts.FlowTracer.Enabled() {
			// Deliver wait: decompression done to the consumer taking the
			// group in wire order.
			e.recordRecvSpan(obs.StageDeliver, g.doneAt, e.opts.FlowTracer.Now().Sub(g.doneAt), g.rawLen, g.level)
		}
		if len(g.data) > 0 {
			return g.data, false, nil
		}
		// An empty group adds nothing to the byte stream.
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

// dropStream aborts and forgets the in-progress stream message, if any.
// Abort comes first: the reception goroutine and decode pipeline would
// otherwise block on full queues forever, unreachable even by Close.
func (e *Engine) dropStream(err error) {
	if st := e.loadCur(); st != nil {
		st.abort(err)
		e.storeCur(nil)
	}
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
	if e.recvBuf.Len() > 0 || e.loadCur() != nil {
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
