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
	var acc int64
	if min == codec.MinLevel && len(p) < e.opts.SmallThreshold {
		acc, wireN, err = e.writeSmall(p)
	} else {
		acc, wireN, err = e.writeStream(bytes.NewReader(p), int64(len(p)), min, max)
	}
	return int(acc), wireN, err
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
	if size >= 0 && size < int64(e.opts.SmallThreshold) && min == codec.MinLevel {
		buf := bufpool.Get(int(size))
		defer bufpool.Put(buf)
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, 0, fmt.Errorf("adoc: reading source: %w", err)
		}
		return e.writeSmall(buf)
	}
	if size < 0 {
		// Unknown size: peek up to SmallThreshold to decide the path.
		peek := bufpool.Get(e.opts.SmallThreshold)
		defer bufpool.Put(peek)
		n, rerr := io.ReadFull(r, peek)
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			if min == codec.MinLevel {
				return e.writeSmall(peek[:n])
			}
			return e.writeStream(bytes.NewReader(peek[:n]), int64(n), min, max)
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

// writeStream sends one stream message: header, then either the raw
// bypass (fast link) or the adaptive pipeline, preceded by a raw probe
// prefix while the connection has no link estimate yet. Caller holds wmu.
// delivered is the raw payload of every group that fully reached the
// socket (the basis of the io.Writer partial-write count; on success it is
// every byte read from src); wireBytes counts everything written, and is
// folded into Stats on every return path — error or not — so a mid-stream
// failure cannot leave socket bytes unaccounted.
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
	hdr := wire.AppendStreamHeader(nil, totalRaw)
	hn, err := e.rw.Write(hdr)
	wireBytes += int64(hn)
	if err != nil {
		return 0, wireBytes, err
	}

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
				w, err := e.writeRawGroupDirect(probeBuf[:n])
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

	var d, w int64
	if bypass {
		e.stats.probeBypasses.Add(1)
		d, w, err = e.sendRawBypass(src, remaining)
	} else {
		d, w, err = e.sendPipeline(src, remaining)
	}
	delivered += d
	wireBytes += w
	if err != nil {
		return delivered, wireBytes, err
	}

	end := wire.AppendMsgEnd(nil)
	en, err := e.rw.Write(end)
	wireBytes += int64(en)
	if err != nil {
		return delivered, wireBytes, err
	}
	e.stats.msgsSent.Add(1)
	return delivered, wireBytes, nil
}

// writeRawGroupDirect writes one level-0 group synchronously (probe and
// bypass paths run on the caller thread; no pipeline exists yet), framed
// into one pooled buffer so the whole group costs a single Write, which
// feeds the link estimate. Bytes a failed Write did manage to push are
// included in the returned count.
func (e *Engine) writeRawGroupDirect(chunk []byte) (int64, error) {
	packets := (len(chunk) + e.opts.PacketSize - 1) / e.opts.PacketSize
	frame := bufpool.Get(wire.FrameGroupBeginLen + packets*wire.FramePacketOverhead +
		len(chunk) + wire.FrameGroupEndLen)[:0]
	frame = wire.AppendGroupBegin(frame, codec.MinLevel)
	for off := 0; off < len(chunk); off += e.opts.PacketSize {
		frame = wire.AppendPacket(frame, chunk[off:off+min(e.opts.PacketSize, len(chunk)-off)])
	}
	frame = wire.AppendGroupEnd(frame, len(chunk), wire.Checksum(chunk))
	start := e.opts.Clock.Now()
	n, err := e.rw.Write(frame)
	e.link.add(n, start, e.opts.Clock.Now())
	bufpool.Put(frame)
	return int64(n), err
}

// sendRawBypass sends the remainder of the message uncompressed on the
// caller thread — the Gbit fast path where "we send the remaining data
// uncompressed". remaining < 0 means until EOF.
func (e *Engine) sendRawBypass(src io.Reader, remaining int64) (delivered, wireBytes int64, err error) {
	buf := bufpool.Get(e.opts.BufferSize)
	defer bufpool.Put(buf)
	for remaining != 0 {
		want := int64(len(buf))
		if remaining > 0 && remaining < want {
			want = remaining
		}
		n, rerr := io.ReadFull(src, buf[:want])
		if n > 0 {
			w, err := e.writeRawGroupDirect(buf[:n])
			wireBytes += w
			if err != nil {
				return delivered, wireBytes, err
			}
			delivered += int64(n)
			e.stats.rawSent.Add(int64(n))
			if remaining > 0 {
				remaining -= int64(n)
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			if remaining > 0 {
				return delivered, wireBytes, fmt.Errorf("adoc: source ended %d bytes early: %w", remaining, io.ErrUnexpectedEOF)
			}
			break
		}
		if rerr != nil {
			return delivered, wireBytes, fmt.Errorf("adoc: reading source: %w", rerr)
		}
	}
	return delivered, wireBytes, nil
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
	// classUnknown: the probe did not run (bypass disabled).
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
// to 0 by the entropy probe): compresses and appends wire-framed packets
// to dst. It implements the incompressible-data guard by aborting
// DEFLATE buffers whose running ratio is poor and sending the remainder
// raw. scratch, when non-nil, is a caller-owned buffer reused for LZF
// blocks (the segments copy out of it before returning).
func (e *Engine) compressBufferAt(dst *segList, level codec.Level, chunk, scratch []byte) error {
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

// pushBlockGroup frames a fully materialized group (raw or LZF block) into
// packet segments. raw is the uncompressed data (for the checksum).
func (e *Engine) pushBlockGroup(dst *segList, level codec.Level, block, raw []byte) {
	p := newPacketizer(e, dst, level)
	_, _ = p.Write(block) // appends to dst; cannot fail
	p.finish(len(raw), wire.Checksum(raw))
}

// pushFlateGroup streams chunk through a DEFLATE compressor, checking the
// running ratio after every flush so incompressible data aborts the buffer
// early (paper §5 "Compressed and random data").
func (e *Engine) pushFlateGroup(dst *segList, level codec.Level, chunk []byte) error {
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

// packetizer is an io.Writer that cuts a group's byte stream into
// packet-framed segments of at most PacketSize payload bytes. Its writes
// only append to a segment list, so they never fail.
type packetizer struct {
	e       *Engine
	dst     *segList
	level   codec.Level
	pending []byte
	first   bool
	total   int // compressed bytes accepted so far
	wire    int // wire bytes pushed so far (framing included)
}

func newPacketizer(e *Engine, dst *segList, level codec.Level) *packetizer {
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

// flushPacket appends the pending payload as one segment. When end is true
// the groupEnd frame (with rawLen and checksum) is glued onto the same
// segment so the group closes without an extra FIFO slot.
func (p *packetizer) flushPacket(end bool, rawLen int, sum uint32) {
	if len(p.pending) == 0 && !end {
		return
	}
	// The frame buffer travels through the FIFO to the emission thread,
	// which recycles it after the socket write.
	frame := bufpool.Get(len(p.pending) + maxFrameOverhead)[:0]
	if p.first {
		frame = wire.AppendGroupBegin(frame, p.level)
	}
	if len(p.pending) > 0 {
		frame = wire.AppendPacket(frame, p.pending)
	}
	if end {
		frame = wire.AppendGroupEnd(frame, rawLen, sum)
	}
	seg := segment{
		data:       frame,
		groupStart: p.first,
		groupEnd:   end,
		level:      p.level,
	}
	p.first = false
	p.pending = p.pending[:0]
	p.wire += len(frame)
	if end {
		seg.groupRaw = rawLen
		seg.groupWire = p.wire
	}
	*p.dst = append(*p.dst, seg)
	p.e.ctrl.NotePacketsSent(1)
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
