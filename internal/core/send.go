package core

import (
	"bytes"
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

// WriteMessage sends p as one AdOC message at the engine's level bounds.
// It returns the number of bytes that hit the wire (framing included) —
// the value adoc_write reports through slen. On success the entire p was
// sent, matching the write system-call contract the library preserves.
func (e *Engine) WriteMessage(p []byte) (wireN int64, err error) {
	return e.WriteMessageLevels(p, e.opts.MinLevel, e.opts.MaxLevel)
}

// WriteMessageLevels is WriteMessage with per-call level bounds
// (adoc_write_levels): min > 0 forces compression, max == 0 disables it.
func (e *Engine) WriteMessageLevels(p []byte, min, max codec.Level) (int64, error) {
	_, wireN, err := e.writeMessage(p, min, max, obs.TraceContext{})
	return wireN, err
}

// WriteMessageTC is WriteMessage carrying a flow-trace context: when tc
// is sampled (and the engine has a FlowTracer), every pipeline stage
// this message passes through records a span against tc — the entry
// point the mux session uses for sampled batches.
func (e *Engine) WriteMessageTC(p []byte, tc obs.TraceContext) (int64, error) {
	if e.opts.FlowTracer == nil {
		tc = obs.TraceContext{}
	}
	_, wireN, err := e.writeMessage(p, e.opts.MinLevel, e.opts.MaxLevel, tc)
	return wireN, err
}

// WriteMessageFull is WriteMessage returning additionally the number of
// p's bytes confirmed delivered to the underlying writer — len(p) on
// success, and on failure the count an io.Writer must report: the payload
// of every group that fully reached the socket before the error. Conn's
// io.Writer adapter relies on this to honor the partial-write contract.
func (e *Engine) WriteMessageFull(p []byte) (accepted int, wireN int64, err error) {
	return e.writeMessage(p, e.opts.MinLevel, e.opts.MaxLevel, obs.TraceContext{})
}

func (e *Engine) writeMessage(p []byte, min, max codec.Level, tc obs.TraceContext) (accepted int, wireN int64, err error) {
	if !min.Valid() || !max.Valid() || min > max {
		return 0, 0, codec.ErrBadLevel
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed.Load() {
		return 0, 0, ErrClosed
	}
	e.sendTC = tc
	acc, wireN, err := e.writeBytes(p, min, max)
	return int(acc), wireN, err
}

// writeBytes sends p as one message on the cheapest path that carries
// it: a small message when adaptation may leave it raw, one buffer
// written whole when it fits one adaptation buffer, else the stream
// pipeline. Caller holds wmu.
func (e *Engine) writeBytes(p []byte, min, max codec.Level) (accepted, wireN int64, err error) {
	switch {
	case min == codec.MinLevel && len(p) < e.opts.SmallThreshold:
		return e.writeSmall(p)
	case len(p) <= e.opts.BufferSize:
		return e.writeOneBuffer(p, min, max)
	}
	return e.writeStream(bytes.NewReader(p), int64(len(p)), min, max)
}

// SendMessage streams size bytes from r as one AdOC message; size < 0
// means unknown (read until EOF). It returns the raw byte count delivered
// and the wire byte count — the pair adoc_send_file returns (file size)
// and outputs (slen). This is the adoc_send_file equivalent. On error raw
// is what WriteMessageFull would report: the payload confirmed delivered,
// never the declared size.
func (e *Engine) SendMessage(r io.Reader, size int64) (raw, wireN int64, err error) {
	return e.SendMessageLevels(r, size, e.opts.MinLevel, e.opts.MaxLevel)
}

// SendMessageLevels is SendMessage with per-call level bounds.
func (e *Engine) SendMessageLevels(r io.Reader, size int64, min, max codec.Level) (raw, wireN int64, err error) {
	if !min.Valid() || !max.Valid() || min > max {
		return 0, 0, codec.ErrBadLevel
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed.Load() {
		return 0, 0, ErrClosed
	}
	e.sendTC = obs.TraceContext{}
	if size >= 0 && (size <= int64(e.opts.BufferSize) ||
		size < int64(e.opts.SmallThreshold) && min == codec.MinLevel) {
		buf := bufpool.Get(int(size))
		defer bufpool.Put(buf)
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, 0, fmt.Errorf("adoc: reading source: %w", err)
		}
		return e.writeBytes(buf, min, max)
	}
	if size < 0 {
		// Unknown size: peek up to SmallThreshold to decide the path.
		peek := bufpool.Get(e.opts.SmallThreshold)
		defer bufpool.Put(peek)
		n, rerr := io.ReadFull(r, peek)
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return e.writeBytes(peek[:n], min, max)
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("adoc: reading source: %w", rerr)
		}
		r = io.MultiReader(bytes.NewReader(peek[:n]), r)
	}
	return e.writeStream(r, size, min, max)
}

// writeSmall sends the no-pipeline fast path: one buffer, one system call,
// latency identical to a plain write (paper §5 "Small messages").
// accepted is the count of p's bytes confirmed delivered: len(p) on
// success, always 0 on error — a truncated KindSmall message is discarded
// whole by the receiver, so partially-written payload bytes were NOT
// delivered and must not be reported as consumed to an io.Writer caller.
// wireN still counts what actually hit the wire on every return path, so
// a partial write shows up in Stats.
func (e *Engine) writeSmall(p []byte) (accepted, wireN int64, err error) {
	msg := wire.AppendSmall(bufpool.Get(len(p) + wire.SmallOverhead)[:0], p)
	defer bufpool.Put(msg)
	tc := e.sendTC
	var t0 time.Time
	if tc.Sampled {
		t0 = e.opts.FlowTracer.Now()
	}
	n, err := e.rw.Write(msg)
	if tc.Sampled {
		tr := e.opts.FlowTracer
		tr.Record(tc, 0, obs.StageWire, t0, tr.Now().Sub(t0), len(msg), 0)
	}
	if err != nil {
		e.stats.wireSent.Add(int64(n))
		return 0, int64(n), err
	}
	e.stats.msgsSent.Add(1)
	e.stats.smallSent.Add(1)
	e.stats.rawSent.Add(int64(len(p)))
	e.stats.wireSent.Add(int64(len(msg)))
	return int64(len(p)), int64(len(msg)), nil
}

// writeOneBuffer sends a stream message that fits one adaptation buffer.
// The pipeline would have nothing to overlap — compressing buffer i+1
// while buffer i is on the wire needs a buffer i+1 — so, like writeSmall,
// it runs on the caller's goroutine: the level is chosen as the pipeline
// chooses it for a first buffer (the fast-link bypass, or the controller
// at an empty queue followed by the entropy probe when its verdict can
// change something), the buffer compresses here into the engine's sink,
// and one Write carries the header, the group(s) and MsgEnd. The wire
// bytes are the pipeline's, and emit feeds the controller, link estimate,
// stats and flow-trace spans as it does for the pipeline. Caller holds
// wmu.
func (e *Engine) writeOneBuffer(p []byte, min, max codec.Level) (delivered, wireN int64, err error) {
	if err := e.ctrl.SetBounds(min, max); err != nil {
		return 0, 0, err
	}
	e.link.startMessage()
	tc := e.sendTC
	tr := e.opts.FlowTracer
	s := &e.sink
	s.open(wire.StreamHeaderLen + wire.GroupLen(len(p), e.opts.PacketSize) + wire.FrameMsgEndLen)
	s.buf = wire.AppendStreamHeader(s.buf, uint64(len(p)))
	bypass := min == codec.MinLevel && !e.opts.DisableProbe && e.link.Bps() > DefaultFastCutoffBps
	switch {
	case len(p) == 0:
	case bypass:
		// As on the stream bypass, the controller neither picks the level
		// nor hears about the group.
		e.stats.probeBypasses.Add(1)
		s.appendGroup(codec.MinLevel, p, p, e.opts.PacketSize)
	default:
		level := e.ctrl.LevelForNextBuffer(0)
		var start time.Time
		if tc.Sampled {
			// No in-flight window to wait for and no pool queue to sit in:
			// both stages take no time on this path.
			start = tr.Now()
			tr.Record(tc, 0, obs.StageEnqueue, start, 0, len(p), int(level))
			tr.Record(tc, 0, obs.StageQueue, start, 0, len(p), int(level))
		}
		// At level 0 the probe's verdict matters only to an open bypass
		// run, which a compressible buffer ends: otherwise the buffer
		// ships raw whatever the verdict, and the probe is skipped. The
		// pipeline keeps probing, since verdicts of its earlier buffers
		// may still be in flight when it picks a level.
		class := classUnknown
		if level != codec.MinLevel || e.ctrl.BypassRunning() {
			level, class = e.classifyBuffer(level, p)
		}
		var scratch []byte
		if level == codec.LZF {
			scratch = bufpool.Get(e.opts.BufferSize)
		}
		err := e.compressBufferAt(s, level, p, scratch)
		if scratch != nil {
			bufpool.Put(scratch)
		}
		if tc.Sampled {
			tr.Record(tc, 0, obs.StageCompress, start, tr.Now().Sub(start), len(p), int(level))
		}
		if err != nil {
			s.release()
			return 0, 0, err
		}
		e.noteContent(class)
	}
	s.buf = wire.AppendMsgEnd(s.buf)
	delivered, n, err := e.emit(s, tc, 0, bypass)
	if err == nil {
		e.stats.msgsSent.Add(1)
	}
	return delivered, int64(n), err
}

// writeStream sends one stream message that spans several adaptation
// buffers (or has an unknown size): either the raw bypass (fast link) or
// the adaptive pipeline, preceded by a raw probe prefix while the
// connection has no link estimate yet. Caller holds wmu. delivered is the
// raw payload of every group that fully reached the socket (the basis of
// the io.Writer partial-write count; on success it is every byte read
// from src); wireBytes counts everything written, error or not, as emit
// already folded it into Stats.
func (e *Engine) writeStream(src io.Reader, size int64, min, max codec.Level) (delivered, wireBytes int64, err error) {
	if err := e.ctrl.SetBounds(min, max); err != nil {
		return 0, 0, err
	}
	e.link.startMessage()
	totalRaw := wire.UnknownTotal
	if size >= 0 {
		totalRaw = uint64(size)
	}
	// The header rides in front of the message's first group, whichever
	// path sends it; head is nil once it is out.
	head := wire.AppendStreamHeader(nil, totalRaw)
	remaining := size // < 0 when unknown

	// Fast-link rule (paper §5 "Fast Networks"), for messages adaptation
	// may send at level 0: above DefaultFastCutoffBps the rest goes out
	// raw on this thread. The decision reads the connection's link
	// estimate. Until it has one, a message of at least twice
	// DefaultProbeSize (or of unknown size) first sends DefaultProbeSize
	// bytes raw to measure the link, as the paper probes 256 KB of
	// messages above 512 KB; shorter messages adapt
	// and feed the estimate from the emitter. The emitter alone cannot
	// seed it for compressible data: on a fast link the controller still
	// compresses such a message, so its samples time the compressor, not
	// the link, and read below the cutoff.
	probe, bypass := false, false
	if min == codec.MinLevel && !e.opts.DisableProbe {
		probe = e.link.Bps() == 0 && (size < 0 || size >= 2*DefaultProbeSize)
		bypass = !probe && e.link.Bps() > DefaultFastCutoffBps
	}
	if bypass {
		e.stats.probeBypasses.Add(1)
	}

	// The probe prefix and the bypass send level-0 groups on this thread,
	// one group per Write through the engine's sink: the probe one group
	// of DefaultProbeSize that the controller hears about, the bypass
	// groups of BufferSize that it does not. MsgEnd rides with the group
	// that ends the message.
	ended := false
	for (probe || bypass) && remaining != 0 {
		want := int64(e.opts.BufferSize)
		if probe {
			want = DefaultProbeSize
		}
		if remaining > 0 && remaining < want {
			want = remaining
		}
		chunk := bufpool.Get(int(want))
		n, rerr := io.ReadFull(src, chunk)
		eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
		if remaining > 0 {
			remaining -= int64(n)
		} else if eof {
			remaining = 0 // an unknown size ends here
		}
		if n > 0 {
			s := &e.sink
			s.open(len(head) + wire.GroupLen(n, e.opts.PacketSize) + wire.FrameMsgEndLen)
			s.buf = append(s.buf, head...)
			s.appendGroup(codec.MinLevel, chunk[:n], chunk[:n], e.opts.PacketSize)
			if remaining == 0 {
				s.buf = wire.AppendMsgEnd(s.buf)
				ended = true
			}
			head = nil
			d, w, err := e.emit(s, e.sendTC, 0, bypass)
			delivered += d
			wireBytes += int64(w)
			if err != nil {
				bufpool.Put(chunk)
				return delivered, wireBytes, err
			}
			if probe {
				probe = false
				bypass = e.link.Bps() > DefaultFastCutoffBps
				if bypass {
					e.stats.probeBypasses.Add(1)
				}
				if e.opts.Trace.OnProbe != nil {
					e.opts.Trace.OnProbe(e.link.Bps(), bypass)
				}
			}
		}
		bufpool.Put(chunk)
		switch {
		case eof && remaining > 0:
			return delivered, wireBytes, fmt.Errorf("adoc: source ended %d bytes early: %w", remaining, io.ErrUnexpectedEOF)
		case rerr != nil && !eof:
			return delivered, wireBytes, fmt.Errorf("adoc: reading source: %w", rerr)
		}
	}

	if !ended && remaining != 0 {
		d, w, err := e.sendPipeline(src, remaining, head)
		delivered += d
		wireBytes += w
		if err != nil {
			return delivered, wireBytes, err
		}
		if d > 0 {
			head = nil // it rode with the first buffer
		}
	}
	if !ended {
		// After the pipeline, or when the source ended on a buffer
		// boundary, MsgEnd (behind the header, if that is still unsent)
		// goes out on its own.
		s := &e.sink
		s.open(len(head) + wire.FrameMsgEndLen)
		s.buf = wire.AppendMsgEnd(append(s.buf, head...))
		_, w, err := e.emit(s, e.sendTC, 0, false)
		wireBytes += int64(w)
		if err != nil {
			return delivered, wireBytes, err
		}
	}
	e.stats.msgsSent.Add(1)
	return delivered, wireBytes, nil
}

// emit is the one send step: it writes the framed bytes of s with a
// single Write, recycles s's buffer, and accounts for the Write. The link
// estimate hears it and wireSent counts what the socket took. Each group
// fully on the socket counts as delivered (rawSent and the returned
// total) and gets its share of the Write's time, in proportion to its
// wire bytes, for its wire span and — unless bypass, where the controller
// neither picked the level nor hears about the group — for the
// controller's delivered bandwidth and OnGroupSent, which reports queued
// as the FIFO occupancy.
func (e *Engine) emit(s *frameSink, tc obs.TraceContext, queued int, bypass bool) (delivered int64, n int, err error) {
	start := e.opts.Clock.Now()
	n, err = e.rw.Write(s.buf)
	end := e.opts.Clock.Now()
	e.link.add(n, start, end)
	e.stats.wireSent.Add(int64(n))
	for _, g := range s.groups {
		if n < g.end {
			break
		}
		gw := g.end - g.start
		delivered += int64(g.raw)
		dur := end.Sub(start) * time.Duration(gw) / time.Duration(len(s.buf))
		if tc.Sampled {
			e.opts.FlowTracer.Record(tc, 0, obs.StageWire, start, dur, gw, int(g.level))
		}
		if bypass {
			continue
		}
		e.ctrl.RecordDelivery(g.level, g.raw, dur)
		if e.opts.Trace.OnGroupSent != nil {
			e.opts.Trace.OnGroupSent(g.level, g.raw, gw, queued)
		}
	}
	e.stats.rawSent.Add(delivered)
	s.release()
	return delivered, n, err
}

// emitResult is the emission thread's final report. rawDelivered is the
// raw payload of the groups whose bytes all reached the socket.
type emitResult struct {
	wireBytes    int64
	rawDelivered int64
	err          error
}

// runEmitter is the emission thread: it takes framed buffers from the
// FIFO in order and emits each with one Write. A buffer leaves the FIFO's
// count when it is popped but still counts toward the controller's
// occupancy, through backlog, until its Write returns. The message's
// flow-trace context arrives as a parameter (captured under wmu at
// spawn), so a sampled message's wire spans need no shared state with
// the writer.
func (e *Engine) runEmitter(q *fifo.Queue[frameSink], backlog *atomic.Int64, res chan<- emitResult, tc obs.TraceContext) {
	var r emitResult
	for {
		s, err := q.Pop()
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			res <- r
			return
		}
		backlog.Add(int64(s.packets))
		d, n, werr := e.emit(&s, tc, q.Len(), false)
		backlog.Add(-int64(s.packets))
		r.rawDelivered += d
		r.wireBytes += int64(n)
		if werr != nil {
			q.Abort(werr)
			r.err = werr
			res <- r
			return
		}
	}
}

// contentClass is the entropy probe's verdict on one adaptation buffer,
// reported back to the controller separately from the compression work so
// the pipeline can apply feedback in buffer order, not worker completion
// order.
type contentClass int8

const (
	// classUnknown: the probe did not run (bypass disabled, or a
	// one-buffer message at level 0 outside a bypass run).
	classUnknown contentClass = iota
	// classCompressible: worth compressing; ends any bypass run.
	classCompressible
	// classBypassed: incompressible and the controller wanted a codec —
	// the buffer ships raw instead.
	classBypassed
	// classIncompressible: incompressible but already at level 0 (the
	// bypass pin, or the controller's own choice); nothing to bypass,
	// and the content run persists.
	classIncompressible
)

// classifyBuffer runs the entropy probe on one adaptation buffer and
// returns the level it should actually be framed at plus its content
// class. The probe runs at every level — including 0 — because releasing
// a bypass run requires seeing compressible content while pinned at the
// minimum; skipping the probe there would make the pin permanent.
func (e *Engine) classifyBuffer(level codec.Level, chunk []byte) (codec.Level, contentClass) {
	// With compression negotiated off entirely the verdict could never
	// change anything — skip the probe, not just the bypass.
	if e.opts.DisableEntropyBypass || e.opts.MaxLevel == codec.MinLevel {
		return level, classUnknown
	}
	if codec.Incompressible(chunk) {
		if level != codec.MinLevel {
			return codec.MinLevel, classBypassed
		}
		return level, classIncompressible
	}
	return level, classCompressible
}

// noteContent feeds one buffer's probe verdict to the controller. The
// in-order reassembly stage invokes it in buffer (stream) order, so the
// consecutive-bypass run the controller tracks matches what actually went
// on the wire.
func (e *Engine) noteContent(class contentClass) {
	switch class {
	case classBypassed:
		if e.ctrl.NoteEntropyBypass() {
			e.events.Publish(obs.Event{
				Type: obs.EventBypass, Conn: e.handle.ID(), Action: "pin",
			})
		}
	case classCompressible:
		if e.ctrl.NoteCompressibleContent() {
			e.events.Publish(obs.Event{
				Type: obs.EventBypass, Conn: e.handle.ID(), Action: "release",
			})
		}
	}
	// classIncompressible: the run persists without counting a bypass —
	// nothing was compressed and nothing was skipped.
}

// compressBufferAt handles one adaptation unit (≤ BufferSize bytes) at a
// level the caller already resolved (controller choice, possibly lowered
// to 0 by the entropy probe): compresses and appends its wire frames to
// dst. It implements the incompressible-data guard by aborting
// DEFLATE buffers whose running ratio is poor and sending the remainder
// raw. scratch, when non-nil, is a caller-owned buffer reused for LZF
// blocks (the frames copy out of it before returning).
func (e *Engine) compressBufferAt(dst *frameSink, level codec.Level, chunk, scratch []byte) error {
	switch {
	case level == codec.MinLevel:
		e.pushBlockGroup(dst, codec.MinLevel, chunk, chunk)
	case level == codec.LZF:
		blk, used, err := codec.CompressAppend(scratch, codec.LZF, chunk)
		if err != nil {
			return err
		}
		if used == codec.MinLevel {
			// Did not shrink: raw group plus the incompressible pin.
			e.ctrl.NotePacketRatio(codec.LZF, len(chunk), len(chunk))
			e.pushBlockGroup(dst, codec.MinLevel, chunk, chunk)
		} else {
			e.ctrl.NotePacketRatio(used, len(chunk), len(blk))
			e.pushBlockGroup(dst, used, blk, chunk)
		}
	default:
		return e.pushFlateGroup(dst, level, chunk)
	}
	return nil
}

// pushBlockGroup frames a fully materialized group (raw or LZF block).
// raw is the uncompressed data (for the checksum).
func (e *Engine) pushBlockGroup(dst *frameSink, level codec.Level, block, raw []byte) {
	e.ctrl.NotePacketsSent(dst.appendGroup(level, block, raw, e.opts.PacketSize))
}

// pushFlateGroup streams chunk through a DEFLATE compressor, checking the
// running ratio after every flush so incompressible data aborts the buffer
// early (paper §5 "Compressed and random data").
func (e *Engine) pushFlateGroup(dst *frameSink, level codec.Level, chunk []byte) error {
	p := newPacketizer(e, dst, level)
	sw, err := codec.NewStreamWriter(level, p)
	if err != nil {
		return err
	}
	fed := 0
	aborted := false
	for fed < len(chunk) {
		step := min(DefaultFlushInterval, len(chunk)-fed)
		before := p.total
		if _, err := sw.Write(chunk[fed : fed+step]); err != nil {
			sw.Close()
			return err
		}
		if err := sw.Flush(); err != nil {
			sw.Close()
			return err
		}
		fed += step
		produced := p.total - before
		if e.ctrl.NotePacketRatio(level, step, produced) {
			aborted = true
			break
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	p.finish(fed, wire.Checksum(chunk[:fed]))
	if aborted && fed < len(chunk) {
		// Remainder of the buffer goes out raw.
		rest := chunk[fed:]
		e.pushBlockGroup(dst, codec.MinLevel, rest, rest)
	}
	return nil
}

// frameSink holds the wire bytes of one Write: whole framed groups in
// order, behind the stream header when the Write starts a message and
// ahead of MsgEnd when it ends one, with where each group lies and how
// many FIFO packets the groups hold. It is the send side's only framing
// type: the caller's goroutine fills the engine's sink, a pipeline worker
// one per buffer, and emit writes either.
type frameSink struct {
	buf    []byte
	groups []sinkGroup
	// packets counts each group's full packets plus the one that closes
	// it: the segments of a packet FIFO, the occupancy unit the
	// controller reads.
	packets int
}

// sinkGroup is one group of a sink: its level, raw size, and the span
// [start, end) of its frames in buf.
type sinkGroup struct {
	level      codec.Level
	raw        int
	start, end int
}

// open readies s for a new Write of up to n bytes, on a pooled buffer.
func (s *frameSink) open(n int) {
	s.buf = bufpool.Get(n)[:0]
	s.groups = s.groups[:0]
	s.packets = 0
}

// release recycles s's buffer, if it still holds one.
func (s *frameSink) release() {
	if s.buf != nil {
		bufpool.Put(s.buf)
		s.buf = nil
	}
}

// appendGroup frames one whole group and returns the packets it adds.
func (s *frameSink) appendGroup(level codec.Level, block, raw []byte, packetSize int) int {
	start := len(s.buf)
	s.buf = wire.AppendGroup(s.buf, level, block, packetSize, len(raw), wire.Checksum(raw))
	s.groups = append(s.groups, sinkGroup{level: level, raw: len(raw), start: start, end: len(s.buf)})
	packets := len(block)/packetSize + 1
	s.packets += packets
	return packets
}

// packetizer is an io.Writer that cuts a group's compressed byte stream
// into packet frames of at most PacketSize payload bytes, appended to a
// sink behind the group's begin frame. Its writes never fail.
type packetizer struct {
	e       *Engine
	dst     *frameSink
	level   codec.Level
	start   int // offset of the group's begin frame in dst.buf
	pending []byte
	total   int // compressed bytes accepted so far
}

func newPacketizer(e *Engine, dst *frameSink, level codec.Level) *packetizer {
	start := len(dst.buf)
	dst.buf = wire.AppendGroupBegin(dst.buf, level)
	return &packetizer{e: e, dst: dst, level: level, start: start,
		pending: bufpool.Get(e.opts.PacketSize)[:0]}
}

func (p *packetizer) Write(b []byte) (int, error) {
	n := len(b)
	p.total += n
	for len(b) > 0 {
		space := p.e.opts.PacketSize - len(p.pending)
		take := len(b)
		if take > space {
			take = space
		}
		p.pending = append(p.pending, b[:take]...)
		b = b[take:]
		if len(p.pending) == p.e.opts.PacketSize {
			p.flushPacket(false, 0, 0)
		}
	}
	return n, nil
}

// flushPacket frames the pending payload as one packet. When end is true
// the groupEnd frame (with rawLen and checksum) follows it, so the packet
// that closes the group counts once however little payload it carries.
func (p *packetizer) flushPacket(end bool, rawLen int, sum uint32) {
	if len(p.pending) == 0 && !end {
		return
	}
	s := p.dst
	if len(p.pending) > 0 {
		s.buf = wire.AppendPacket(s.buf, p.pending)
	}
	if end {
		s.buf = wire.AppendGroupEnd(s.buf, rawLen, sum)
		s.groups = append(s.groups, sinkGroup{level: p.level, raw: rawLen, start: p.start, end: len(s.buf)})
	}
	s.packets++
	p.e.ctrl.NotePacketsSent(1)
	p.pending = p.pending[:0]
}

// finish closes the group, emitting any partial packet plus the groupEnd
// frame, and releases the staging buffer.
func (p *packetizer) finish(rawLen int, sum uint32) {
	p.flushPacket(true, rawLen, sum)
	bufpool.Put(p.pending)
	p.pending = nil
}
