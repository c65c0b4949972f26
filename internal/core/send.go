package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// segment is one FIFO item: pre-framed wire bytes plus the bookkeeping the
// emission thread needs to attribute bandwidth to compression levels.
type segment struct {
	data       []byte
	groupStart bool
	groupEnd   bool
	level      codec.Level
	groupRaw   int // raw payload of the whole group; set on the end segment
	groupWire  int // wire bytes of the whole group; set on the end segment
}

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
// change something), the buffer compresses
// here, and one Write carries the header, the group(s) and MsgEnd. The
// wire bytes are the pipeline's, and the controller, link estimate,
// stats and flow-trace spans are fed as the pipeline feeds them. Caller
// holds wmu.
func (e *Engine) writeOneBuffer(p []byte, min, max codec.Level) (delivered, wireN int64, err error) {
	if err := e.ctrl.SetBounds(min, max); err != nil {
		return 0, 0, err
	}
	e.link.startMessage()
	tc := e.sendTC
	tr := e.opts.FlowTracer
	sink := frameSink{flat: true}
	sink.buf = bufpool.Get(wire.StreamHeaderLen + wire.GroupLen(len(p), e.opts.PacketSize) + wire.FrameMsgEndLen)[:0]
	sink.buf = wire.AppendStreamHeader(sink.buf, uint64(len(p)))
	bypass := min == codec.MinLevel && !e.opts.DisableProbe && e.link.Bps() > DefaultFastCutoffBps
	switch {
	case len(p) == 0:
	case bypass:
		// As on sendRawBypass, the controller neither picks the level nor
		// hears about the group.
		e.stats.probeBypasses.Add(1)
		sink.appendGroup(codec.MinLevel, p, p, e.opts.PacketSize)
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
		err := e.compressBufferAt(&sink, level, p, scratch)
		if scratch != nil {
			bufpool.Put(scratch)
		}
		if tc.Sampled {
			tr.Record(tc, 0, obs.StageCompress, start, tr.Now().Sub(start), len(p), int(level))
		}
		if err != nil {
			bufpool.Put(sink.buf)
			return 0, 0, err
		}
		e.noteContent(class)
	}
	sink.buf = wire.AppendMsgEnd(sink.buf)
	e.stats.rawSent.Add(int64(len(p)))

	start := e.opts.Clock.Now()
	n, err := e.rw.Write(sink.buf)
	end := e.opts.Clock.Now()
	e.link.add(n, start, end)
	e.stats.wireSent.Add(int64(n))
	// Each group fully on the socket counts as delivered, with its share
	// of the Write's time.
	total := len(sink.buf)
	prev := wire.StreamHeaderLen
	for _, g := range sink.groups {
		if n < g.end {
			break
		}
		gw := g.end - prev
		prev = g.end
		delivered += int64(g.raw)
		dur := end.Sub(start) * time.Duration(gw) / time.Duration(total)
		if tc.Sampled {
			tr.Record(tc, 0, obs.StageWire, start, dur, gw, int(g.level))
		}
		if bypass {
			continue
		}
		e.ctrl.RecordDelivery(g.level, g.raw, dur)
		if e.opts.Trace.OnGroupSent != nil {
			e.opts.Trace.OnGroupSent(g.level, g.raw, gw, 0)
		}
	}
	bufpool.Put(sink.buf)
	if err != nil {
		return delivered, int64(n), err
	}
	e.stats.msgsSent.Add(1)
	return int64(len(p)), int64(total), nil
}

// writeStream sends one stream message that spans several adaptation
// buffers (or has an unknown size): either the raw bypass (fast link) or
// the adaptive pipeline, preceded by a raw probe prefix while the
// connection has no link estimate yet. Caller holds wmu. delivered is the
// raw payload of every group that fully reached the socket (the basis of
// the io.Writer partial-write count; on success it is every byte read
// from src); wireBytes counts everything written, and is folded into
// Stats on every return path — error or not — so a mid-stream failure
// cannot leave socket bytes unaccounted.
func (e *Engine) writeStream(src io.Reader, size int64, min, max codec.Level) (delivered, wireBytes int64, err error) {
	if err := e.ctrl.SetBounds(min, max); err != nil {
		return 0, 0, err
	}
	defer func() { e.stats.wireSent.Add(wireBytes) }()
	e.link.startMessage()
	totalRaw := wire.UnknownTotal
	if size >= 0 {
		totalRaw = uint64(size)
	}
	// The header rides in front of the first raw group when the message
	// starts raw (probe or bypass); the pipeline writes it alone.
	hdr := wire.AppendStreamHeader(nil, totalRaw)

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
	bypass := false
	if min == codec.MinLevel && !e.opts.DisableProbe {
		probed := false
		if e.link.Bps() == 0 && (size < 0 || size >= 2*DefaultProbeSize) {
			probeBuf := bufpool.Get(DefaultProbeSize)
			defer bufpool.Put(probeBuf)
			n, rerr := io.ReadFull(src, probeBuf)
			if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				return delivered, wireBytes, fmt.Errorf("adoc: reading source: %w", rerr)
			}
			if n > 0 {
				start := e.opts.Clock.Now()
				w, err := e.writeRawGroupDirect(hdr, probeBuf[:n], false)
				hdr = nil
				wireBytes += w
				if err != nil {
					return delivered, wireBytes, err
				}
				delivered += int64(n)
				e.ctrl.RecordDelivery(codec.MinLevel, n, e.opts.Clock.Now().Sub(start))
				if remaining >= 0 {
					remaining -= int64(n)
				}
				e.stats.rawSent.Add(int64(n))
				probed = true
			}
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				remaining = 0
			}
		}
		bypass = e.link.Bps() > DefaultFastCutoffBps
		if probed && e.opts.Trace.OnProbe != nil {
			e.opts.Trace.OnProbe(e.link.Bps(), bypass)
		}
	}

	if bypass {
		e.stats.probeBypasses.Add(1)
		d, w, err := e.sendRawBypass(src, remaining, hdr)
		delivered += d
		wireBytes += w
		if err != nil {
			return delivered, wireBytes, err
		}
		e.stats.msgsSent.Add(1)
		return delivered, wireBytes, nil
	}

	if hdr != nil {
		hn, err := e.rw.Write(hdr)
		wireBytes += int64(hn)
		if err != nil {
			return delivered, wireBytes, err
		}
	}
	d, w, err := e.sendPipeline(src, remaining)
	delivered += d
	wireBytes += w
	if err != nil {
		return delivered, wireBytes, err
	}
	en, err := e.rw.Write(wire.AppendMsgEnd(nil))
	wireBytes += int64(en)
	if err != nil {
		return delivered, wireBytes, err
	}
	e.stats.msgsSent.Add(1)
	return delivered, wireBytes, nil
}

// writeRawGroupDirect writes one level-0 group synchronously (probe and
// bypass paths run on the caller thread; no pipeline exists yet). The
// group is framed into one pooled buffer behind head (the stream header,
// while it is unsent) and, when last, ahead of MsgEnd, so it costs a
// single Write, which feeds the link estimate. Bytes a failed Write did
// manage to push are included in the returned count.
func (e *Engine) writeRawGroupDirect(head, chunk []byte, last bool) (int64, error) {
	frame := bufpool.Get(len(head) + wire.GroupLen(len(chunk), e.opts.PacketSize) + wire.FrameMsgEndLen)[:0]
	frame = append(frame, head...)
	frame = wire.AppendGroup(frame, codec.MinLevel, chunk, e.opts.PacketSize, len(chunk), wire.Checksum(chunk))
	if last {
		frame = wire.AppendMsgEnd(frame)
	}
	start := e.opts.Clock.Now()
	n, err := e.rw.Write(frame)
	e.link.add(n, start, e.opts.Clock.Now())
	bufpool.Put(frame)
	return int64(n), err
}

// sendRawBypass sends the remainder of the message uncompressed on the
// caller thread — the Gbit fast path where "we send the remaining data
// uncompressed" — through MsgEnd. head, when non-nil, is the unsent
// stream header; it goes out in the same Write as the first group, and
// MsgEnd in the same Write as the last one. remaining < 0 means until EOF.
func (e *Engine) sendRawBypass(src io.Reader, remaining int64, head []byte) (delivered, wireBytes int64, err error) {
	buf := bufpool.Get(e.opts.BufferSize)
	defer bufpool.Put(buf)
	for remaining != 0 {
		want := int64(len(buf))
		if remaining > 0 && remaining < want {
			want = remaining
		}
		n, rerr := io.ReadFull(src, buf[:want])
		eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
		if n > 0 {
			if remaining > 0 {
				remaining -= int64(n)
			}
			last := remaining == 0 || remaining < 0 && eof
			w, err := e.writeRawGroupDirect(head, buf[:n], last)
			head = nil
			wireBytes += w
			if err != nil {
				return delivered, wireBytes, err
			}
			delivered += int64(n)
			e.stats.rawSent.Add(int64(n))
			if last {
				return delivered, wireBytes, nil
			}
		}
		if eof {
			if remaining > 0 {
				return delivered, wireBytes, fmt.Errorf("adoc: source ended %d bytes early: %w", remaining, io.ErrUnexpectedEOF)
			}
			break
		}
		if rerr != nil {
			return delivered, wireBytes, fmt.Errorf("adoc: reading source: %w", rerr)
		}
	}
	// The source ended on a buffer boundary (or sent nothing): MsgEnd,
	// behind the header if that is still unsent, goes out on its own.
	w, err := e.rw.Write(wire.AppendMsgEnd(head))
	return delivered, wireBytes + int64(w), err
}

// emitResult is the emission thread's final report. rawDelivered is the
// raw payload of the groups whose bytes all reached the socket.
type emitResult struct {
	wireBytes    int64
	rawDelivered int64
	err          error
}

// runEmitter is the emission thread: it drains the FIFO onto the socket,
// feeds each Write to the link estimate, and measures
// per-group delivery time, feeding the divergence guard.
// The message's flow-trace context arrives as a parameter (captured
// under wmu at spawn), so a sampled message's wire spans need no shared
// state with the writer.
func (e *Engine) runEmitter(q *fifo.Queue[segment], res chan<- emitResult, tc obs.TraceContext) {
	var wireBytes, rawDelivered int64
	var groupStart time.Time
	for {
		seg, err := q.Pop()
		if err == io.EOF {
			res <- emitResult{wireBytes, rawDelivered, nil}
			return
		}
		if err != nil {
			res <- emitResult{wireBytes, rawDelivered, err}
			return
		}
		start := e.opts.Clock.Now()
		if seg.groupStart {
			groupStart = start
		}
		n, werr := e.rw.Write(seg.data)
		end := e.opts.Clock.Now()
		e.link.add(n, start, end)
		wireBytes += int64(n)
		if werr != nil {
			q.Abort(werr)
			res <- emitResult{wireBytes, rawDelivered, werr}
			return
		}
		if seg.groupEnd {
			rawDelivered += int64(seg.groupRaw)
			dur := end.Sub(groupStart)
			e.ctrl.RecordDelivery(seg.level, seg.groupRaw, dur)
			if tc.Sampled {
				e.opts.FlowTracer.Record(tc, 0, obs.StageWire, groupStart, dur, seg.groupWire, int(seg.level))
			}
			if e.opts.Trace.OnGroupSent != nil {
				e.opts.Trace.OnGroupSent(seg.level, seg.groupRaw, seg.groupWire, q.Len())
			}
		}
		// The frame's bytes are on the socket; recycle its buffer.
		bufpool.Put(seg.data)
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
	if dst.flat {
		dst.appendGroup(level, block, raw, e.opts.PacketSize)
		// One per segment the packetizer would have queued: each full
		// packet, plus the one that closes the group.
		e.ctrl.NotePacketsSent(len(block)/e.opts.PacketSize + 1)
		return
	}
	p := newPacketizer(e, dst, level)
	_, _ = p.Write(block) // appends to dst; cannot fail
	p.finish(len(raw), wire.Checksum(raw))
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

// frameSink collects the wire frames of one compressed buffer: one
// segment per packet for the emission FIFO, or, when flat, every frame
// appended to buf for a single Write, with groups marking where each
// group ends.
type frameSink struct {
	segs   segList
	flat   bool
	buf    []byte
	groups []flatGroup
}

// flatGroup is one group of a flat sink: its level, raw size, and the
// offset in buf just past its groupEnd frame.
type flatGroup struct {
	level    codec.Level
	raw, end int
}

// appendGroup frames one whole group into a flat sink.
func (s *frameSink) appendGroup(level codec.Level, block, raw []byte, packetSize int) {
	s.buf = wire.AppendGroup(s.buf, level, block, packetSize, len(raw), wire.Checksum(raw))
	s.groups = append(s.groups, flatGroup{level: level, raw: len(raw), end: len(s.buf)})
}

// packetizer is an io.Writer that cuts a group's byte stream into
// packet frames of at most PacketSize payload bytes. Its writes only
// append to a frame sink, so they never fail.
type packetizer struct {
	e       *Engine
	dst     *frameSink
	level   codec.Level
	pending []byte
	first   bool
	total   int // compressed bytes accepted so far
	wire    int // wire bytes pushed so far (framing included)
}

func newPacketizer(e *Engine, dst *frameSink, level codec.Level) *packetizer {
	return &packetizer{e: e, dst: dst, level: level, first: true,
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

// flushPacket appends the pending payload as one segment (or, to a flat
// sink, as frames). When end is true the groupEnd frame (with rawLen and
// checksum) is glued onto the same segment so the group closes without
// an extra FIFO slot.
func (p *packetizer) flushPacket(end bool, rawLen int, sum uint32) {
	if len(p.pending) == 0 && !end {
		return
	}
	var frame []byte
	if p.dst.flat {
		frame = p.dst.buf
	} else {
		// The frame buffer travels through the FIFO to the emission
		// thread, which recycles it after the socket write.
		frame = bufpool.Get(len(p.pending) + maxFrameOverhead)[:0]
	}
	before := len(frame)
	if p.first {
		frame = wire.AppendGroupBegin(frame, p.level)
	}
	if len(p.pending) > 0 {
		frame = wire.AppendPacket(frame, p.pending)
	}
	if end {
		frame = wire.AppendGroupEnd(frame, rawLen, sum)
	}
	p.e.ctrl.NotePacketsSent(1)
	p.wire += len(frame) - before
	first := p.first
	p.first = false
	p.pending = p.pending[:0]
	if p.dst.flat {
		p.dst.buf = frame
		if end {
			p.dst.groups = append(p.dst.groups, flatGroup{level: p.level, raw: rawLen, end: len(frame)})
		}
		return
	}
	seg := segment{
		data:       frame,
		groupStart: first,
		groupEnd:   end,
		level:      p.level,
	}
	if end {
		seg.groupRaw = rawLen
		seg.groupWire = p.wire
	}
	p.dst.segs = append(p.dst.segs, seg)
}

// finish closes the group, emitting any partial packet plus the groupEnd
// frame, and releases the staging buffer.
func (p *packetizer) finish(rawLen int, sum uint32) {
	p.flushPacket(true, rawLen, sum)
	bufpool.Put(p.pending)
	p.pending = nil
}

// maxFrameOverhead bounds the non-payload bytes a single segment can carry:
// a group-begin prefix plus packet framing plus a glued group-end tail.
const maxFrameOverhead = wire.FrameGroupBeginLen + wire.FramePacketOverhead + wire.FrameGroupEndLen
