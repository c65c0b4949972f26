package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// errMsgEnd is the internal signal that the current stream message is
// complete.
var errMsgEnd = errors.New("adoc: message end")

// maxReusedSmallBuf caps the small-payload buffer ReadChunk keeps across
// calls; larger payloads are allocated per message.
const maxReusedSmallBuf = 256 * 1024

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
// Read caller.
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
		frames:  fifo.New[recvFrame](e.opts.QueueCapacity),
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

// advanceStream consumes decoded groups until it has one with data —
// returned as a span of decompressed bytes — the message ends (errMsgEnd),
// or, in non-blocking mode, the pipeline has nothing ready (nil data, nil
// error). Callers must treat the span as valid only until the next
// advanceStream call on this engine: Read copies it into recvBuf, and
// ReadChunk hands it to the consumer under that same contract.
func (e *Engine) advanceStream(st *streamState, block bool) (data []byte, err error) {
	for {
		var g decResult
		if block {
			g, err = st.decoded.Pop()
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, err
			}
		} else {
			var ok bool
			g, ok = st.decoded.TryPop()
			if !ok {
				return nil, nil
			}
		}
		if g.end {
			return nil, errMsgEnd
		}
		e.stats.rawReceived.Add(int64(g.rawLen))
		if !g.doneAt.IsZero() && e.opts.FlowTracer.Enabled() {
			// Deliver wait: decompression done to the consumer taking the
			// group in wire order.
			e.recordRecvSpan(obs.StageDeliver, g.doneAt, e.opts.FlowTracer.Now().Sub(g.doneAt), g.rawLen, g.level)
		}
		if len(g.data) == 0 {
			continue // an empty group adds nothing to the byte stream
		}
		return g.data, nil
	}
}

// finishStream retires the completed stream message.
func (e *Engine) finishStream() {
	e.storeCur(nil)
	e.stats.msgsReceived.Add(1)
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
	for {
		if e.closed.Load() {
			return 0, ErrClosed
		}
		if e.recvBuf.Len() > 0 {
			// Top up from already-arrived frames without blocking, then
			// hand out as much as fits.
			if st := e.loadCur(); st != nil {
				for e.recvBuf.Len() < len(p) {
					data, err := e.advanceStream(st, false)
					if err == errMsgEnd {
						e.finishStream()
						break
					}
					if err != nil {
						// Bytes already decoded are still valid; deliver
						// them first, surface the error on the next call.
						break
					}
					if data == nil {
						break
					}
					e.recvBuf.Write(data)
				}
			}
			return e.recvBuf.Read(p)
		}
		if st := e.loadCur(); st != nil {
			data, err := e.advanceStream(st, true)
			if err == errMsgEnd {
				e.finishStream()
				continue
			}
			if err != nil {
				return 0, e.normalizeErr(err)
			}
			e.recvBuf.Write(data)
			continue // recvBuf now has bytes (unless the group was empty)
		}
		// Between messages: read the next message header directly.
		h, err := e.dec.ReadMsgHeader()
		if err != nil {
			return 0, e.normalizeErr(err)
		}
		switch h.Kind {
		case wire.KindSmall:
			e.stats.wireReceived.Add(int64(wire.SmallOverhead) + int64(h.RawLen))
			if h.RawLen == 0 {
				// A zero-byte message adds nothing to the byte stream.
				e.stats.msgsReceived.Add(1)
				continue
			}
			if len(p) >= int(h.RawLen) {
				// Zero-copy: decode straight into the caller's buffer.
				out, err := e.dec.ReadSmallPayload(h, p)
				if err != nil {
					return 0, e.normalizeErr(err)
				}
				e.stats.msgsReceived.Add(1)
				e.stats.rawReceived.Add(int64(len(out)))
				return len(out), nil
			}
			tmp := make([]byte, h.RawLen)
			if _, err := e.dec.ReadSmallPayload(h, tmp); err != nil {
				return 0, e.normalizeErr(err)
			}
			e.recvBuf.Write(tmp)
			e.stats.msgsReceived.Add(1)
			e.stats.rawReceived.Add(int64(len(tmp)))
		case wire.KindStream:
			e.stats.wireReceived.Add(wire.StreamHeaderLen)
			e.storeCur(e.startStream())
		}
	}
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
	for {
		if e.closed.Load() {
			return nil, ErrClosed
		}
		if e.recvBuf.Len() > 0 {
			// Leftovers from a partial Read: drain them first so the two
			// consumption styles compose.
			return e.recvBuf.Next(e.recvBuf.Len()), nil
		}
		if st := e.loadCur(); st != nil {
			data, err := e.advanceStream(st, true)
			if err == errMsgEnd {
				e.finishStream()
				continue
			}
			if err != nil {
				return nil, e.normalizeErr(err)
			}
			if len(data) > 0 {
				return data, nil
			}
			continue
		}
		h, err := e.dec.ReadMsgHeader()
		if err != nil {
			return nil, e.normalizeErr(err)
		}
		switch h.Kind {
		case wire.KindSmall:
			e.stats.wireReceived.Add(int64(wire.SmallOverhead) + int64(h.RawLen))
			if h.RawLen == 0 {
				e.stats.msgsReceived.Add(1)
				continue
			}
			// Reuse a buffer for typical small messages, but never let a
			// peer-announced size (up to wire.MaxGroupRaw) become memory
			// pinned for the engine's lifetime: oversized payloads get a
			// one-off allocation instead.
			dst := e.smallBuf
			if int(h.RawLen) > maxReusedSmallBuf {
				dst = make([]byte, h.RawLen)
			} else if cap(dst) < int(h.RawLen) {
				e.smallBuf = make([]byte, h.RawLen)
				dst = e.smallBuf
			}
			tr := e.opts.FlowTracer
			var t0 time.Time
			if tr.Enabled() {
				// Small messages carry their own (possible) trace context in
				// the payload — a fresh message means a fresh pending set.
				e.resetRecvTrace()
				t0 = tr.Now()
			}
			out, err := e.dec.ReadSmallPayload(h, dst[:cap(dst)])
			if err != nil {
				return nil, e.normalizeErr(err)
			}
			e.stats.msgsReceived.Add(1)
			e.stats.rawReceived.Add(int64(len(out)))
			if tr.Enabled() {
				now := tr.Now()
				e.recordRecvSpan(obs.StageReceive, t0, now.Sub(t0), int(wire.SmallOverhead)+len(out), 0)
				e.recordRecvSpan(obs.StageDeliver, now, 0, len(out), 0)
			}
			return out, nil
		case wire.KindStream:
			e.stats.wireReceived.Add(wire.StreamHeaderLen)
			e.storeCur(e.startStream())
		}
	}
}

// ReceiveMessage consumes exactly one AdOC message and writes its raw
// content to w, returning the byte count — the adoc_receive_file
// equivalent. It must be called on a message boundary: mixing it with a
// partial Read of another message is an error.
func (e *Engine) ReceiveMessage(w io.Writer) (int64, error) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if e.recvBuf.Len() > 0 || e.loadCur() != nil {
		return 0, ErrMidMessage
	}
	h, err := e.dec.ReadMsgHeader()
	if err != nil {
		return 0, e.normalizeErr(err)
	}
	switch h.Kind {
	case wire.KindSmall:
		e.stats.wireReceived.Add(int64(wire.SmallOverhead) + int64(h.RawLen))
		buf := make([]byte, h.RawLen)
		if _, err := e.dec.ReadSmallPayload(h, buf); err != nil {
			return 0, e.normalizeErr(err)
		}
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
		e.stats.msgsReceived.Add(1)
		e.stats.rawReceived.Add(int64(len(buf)))
		return int64(len(buf)), nil
	case wire.KindStream:
		e.stats.wireReceived.Add(wire.StreamHeaderLen)
		st := e.startStream()
		e.storeCur(st)
		var total int64
		for {
			data, err := e.advanceStream(st, true)
			if len(data) > 0 {
				// Straight from the decode stage to w; the engine's own
				// receive buffer is never involved.
				n, werr := w.Write(data)
				total += int64(n)
				if werr != nil {
					st.abort(werr)
					e.storeCur(nil)
					return total, werr
				}
			}
			if err == errMsgEnd {
				e.finishStream()
				return total, nil
			}
			if err != nil {
				// Abort before dropping cur: the reception goroutine (and
				// decode pipeline) would otherwise block on full queues
				// forever, unreachable even by Close.
				st.abort(err)
				e.storeCur(nil)
				return total, e.normalizeErr(err)
			}
		}
	default:
		return 0, wire.ErrBadKind
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
