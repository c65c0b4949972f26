// Package des is a virtual-time model of the AdOC transfer pipeline. It
// replays the paper's experiments without waiting for wall-clock network
// time: the *policy* (the Figure-2 controller, divergence guard and
// incompressible pin from internal/adapt) runs for real against a manual
// clock, while compression and decompression durations come from measured
// per-level throughputs (internal/codec.Calibrate) and network time from
// an analytic bandwidth/latency/window model.
//
// The model tracks, buffer by buffer:
//
//   - when the compression thread finishes each 200 KB buffer (CPU time at
//     the level the controller chose, scaled by a sender CPU factor);
//   - when the emission thread gets each buffer group onto the wire
//     (serialization at link bandwidth, FIFO after the previous group,
//     held back when more than a socket buffer of data is unconsumed —
//     the TCP backpressure that lets a sender feel a slow receiver);
//   - when the receiver finishes decompressing each group (CPU time
//     scaled by a receiver CPU factor);
//   - the FIFO occupancy the controller sees before each buffer, derived
//     from packets produced versus packets serialized so far.
//
// Everything the live engine does — small-message fast path, 256 KB probe
// with the 500 Mbit/s bypass, per-level bandwidth records — is mirrored
// here, so who-wins/by-how-much shapes match the live system while a full
// 32 MB sweep takes milliseconds of wall time.
package des

import (
	"fmt"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/core"
	"adoc/internal/datagen"
	"adoc/internal/netsim"
)

// Limits is the engine option the model lets a caller vary; the other
// engine parameters are the live engine's constants.
type Limits struct {
	PacketSize int
}

// DefaultLimits mirrors core.DefaultOptions.
func DefaultLimits() Limits {
	return Limits{PacketSize: core.DefaultPacketSize}
}

// Model simulates transfers of one data kind over one link.
type Model struct {
	// Net supplies bandwidth, latency and socket buffer.
	Net netsim.Profile
	// SenderCPU and ReceiverCPU scale codec throughput (1 = the machine
	// that ran the calibration; 0.5 = half as fast). Zero means 1.
	SenderCPU, ReceiverCPU float64
	// Calib holds per-level codec throughput and ratio for the data kind
	// being modeled (index = level).
	Calib []codec.Throughput
	// Limits sets the FIFO packet size.
	Limits Limits
	// MinLevel/MaxLevel bound adaptation.
	MinLevel, MaxLevel codec.Level
	// DisableProbe, DisableDivergenceGuard mirror the live ablations.
	DisableProbe           bool
	DisableDivergenceGuard bool
	// QueueCapacity bounds the emission FIFO in packets (default 256,
	// like the live engine): a full queue blocks the virtual compressor.
	QueueCapacity int
}

// Result reports one simulated transfer.
type Result struct {
	Duration time.Duration
	// RawBytes and WireBytes give the achieved compression.
	RawBytes, WireBytes int64
	// Bypassed reports the probe fast path was taken.
	Bypassed bool
	// LevelCount[l] counts buffers compressed at level l.
	LevelCount []int64
	// Divergences counts divergence-guard demotions.
	Divergences int64
}

// calibCache memoizes per-kind calibration (shared across models).
var calibCache = map[datagen.Kind][]codec.Throughput{}

// CalibrateKind measures codec throughput/ratio for a workload kind on
// this machine (cached). The sample is 1 MB of steady-state data.
func CalibrateKind(k datagen.Kind) ([]codec.Throughput, error) {
	if c, ok := calibCache[k]; ok {
		return c, nil
	}
	sample := datagen.ByKind(k, 1280*1024, 42)[256*1024:]
	tps, err := codec.Calibrate(sample, core.DefaultBufferSize, codec.MinLevel, codec.MaxLevel, 2)
	if err != nil {
		return nil, err
	}
	calibCache[k] = tps
	return tps, nil
}

// NewModel builds a model for a workload kind over a network profile,
// calibrating the codec if needed.
func NewModel(net netsim.Profile, kind datagen.Kind) (*Model, error) {
	calib, err := CalibrateKind(kind)
	if err != nil {
		return nil, err
	}
	return &Model{
		Net:      net,
		Calib:    calib,
		Limits:   DefaultLimits(),
		MinLevel: codec.MinLevel,
		MaxLevel: codec.MaxLevel,
	}, nil
}

func (m *Model) senderCPU() float64 {
	if m.SenderCPU <= 0 {
		return 1
	}
	return m.SenderCPU
}

func (m *Model) receiverCPU() float64 {
	if m.ReceiverCPU <= 0 {
		return 1
	}
	return m.ReceiverCPU
}

func (m *Model) tp(l codec.Level) codec.Throughput {
	if int(l) < len(m.Calib) {
		return m.Calib[l]
	}
	return codec.Throughput{Level: l, CompressBps: 1, DecompressBps: 1, Ratio: 1}
}

// RawTransfer models a plain read/write transfer (the POSIX baseline):
// serialization plus propagation.
func (m *Model) RawTransfer(size int64) time.Duration {
	if size <= 0 {
		return m.Net.Latency
	}
	ser := time.Duration(float64(size) / m.Net.BandwidthBps * float64(time.Second))
	return ser + m.Net.Latency
}

// RawEcho models a POSIX ping-pong: the echo server reads everything then
// sends it back.
func (m *Model) RawEcho(size int64) time.Duration {
	return m.RawTransfer(size) + m.RawTransfer(size)
}

// group is one simulated buffer group.
type group struct {
	raw     int64
	wire    int64
	level   codec.Level
	packets int64

	compDone   time.Duration // compression finished; packets queued
	sendStart  time.Duration
	sendEnd    time.Duration
	consumeEnd time.Duration // receiver finished decompressing
}

// Transfer simulates one AdOC message of the model's data kind.
func (m *Model) Transfer(size int64) Result {
	res := Result{RawBytes: size, LevelCount: make([]int64, int(codec.MaxLevel)+1)}
	packet := int64(m.Limits.PacketSize)
	bw := m.Net.BandwidthBps
	lat := m.Net.Latency
	sockBuf := int64(m.Net.SocketBuf)
	if sockBuf <= 0 {
		sockBuf = 256 * 1024
	}

	// Small-message fast path.
	if size < core.DefaultSmallThreshold {
		res.WireBytes = size + 16
		res.Duration = m.RawTransfer(res.WireBytes)
		return res
	}

	clk := clock.NewManual(time.Unix(0, 0))
	ctrl := adapt.New(adapt.Config{
		Min: m.MinLevel, Max: m.MaxLevel, Clock: clk,
		DisableDivergenceGuard: m.DisableDivergenceGuard,
	})

	var now time.Duration // sender-side virtual time
	var wire int64
	remaining := size

	// Probe: 256 KB raw, timed at link speed.
	if !m.DisableProbe && m.MinLevel == codec.MinLevel {
		probe := min(int64(core.DefaultProbeSize), remaining)
		ser := time.Duration(float64(probe) / bw * float64(time.Second))
		now += ser
		wire += probe + probe/packet*5 + 16
		remaining -= probe
		measured := float64(probe) / ser.Seconds()
		ctrl.RecordDelivery(codec.MinLevel, int(probe), ser)
		if measured > core.DefaultFastCutoffBps {
			res.Bypassed = true
			ser2 := time.Duration(float64(remaining) / bw * float64(time.Second))
			res.Duration = now + ser2 + lat
			res.WireBytes = wire + remaining + remaining/packet*5
			res.LevelCount[0] += (size + core.DefaultBufferSize - 1) / core.DefaultBufferSize
			return res
		}
	}

	// Adaptive pipeline, buffer by buffer.
	qCap := int64(m.QueueCapacity)
	if qCap <= 0 {
		qCap = core.DefaultQueueCapacity
	}
	var groups []group
	var compFree, lastSendEnd, lastConsumeEnd time.Duration
	compFree = now
	lastSendEnd = now
	var cumPackets int64

	// sentPacketsBy returns how many packets have finished serializing by
	// time t (groups serialize FIFO, linearly over their send window).
	sentPacketsBy := func(t time.Duration) int64 {
		var sent int64
		for i := range groups {
			g := &groups[i]
			switch {
			case t >= g.sendEnd:
				sent += g.packets
			case t <= g.sendStart:
				return sent
			default:
				frac := float64(t-g.sendStart) / float64(g.sendEnd-g.sendStart)
				sent += int64(frac * float64(g.packets))
				return sent
			}
		}
		return sent
	}

	// timeQueueBelow returns the earliest time the FIFO occupancy falls
	// to at most want packets (a full queue blocks the compressor, as the
	// bounded fifo does in the live engine).
	timeQueueBelow := func(want int64) time.Duration {
		var sentBefore int64
		target := cumPackets - want // packets that must have been sent
		if target <= 0 {
			return 0
		}
		for i := range groups {
			g := &groups[i]
			if sentBefore+g.packets >= target {
				need := target - sentBefore
				frac := float64(need) / float64(g.packets)
				return g.sendStart + time.Duration(frac*float64(g.sendEnd-g.sendStart))
			}
			sentBefore += g.packets
		}
		return lastSendEnd
	}

	for remaining > 0 {
		raw := min(int64(core.DefaultBufferSize), remaining)
		// A full FIFO blocks the compression thread before it can start
		// the next buffer.
		if cumPackets-sentPacketsBy(compFree) > qCap {
			if unblock := timeQueueBelow(qCap); unblock > compFree {
				compFree = unblock
			}
		}
		// The compressor asks the controller for a level, observing the
		// FIFO occupancy (packets produced but not yet serialized).
		queueLen := cumPackets - sentPacketsBy(compFree)
		if queueLen < 0 {
			queueLen = 0
		}
		clk.Set(time.Unix(0, 0).Add(compFree))
		level := ctrl.LevelForNextBuffer(int(queueLen))
		tp := m.tp(level)
		res.LevelCount[level]++

		compStart := compFree
		var compDur time.Duration
		ratio := 1.0
		if level > 0 {
			compDur = time.Duration(float64(raw) / (tp.CompressBps * m.senderCPU()) * float64(time.Second))
			ratio = tp.Ratio
			if ratio < 1 {
				ratio = 1
			}
		}
		g := group{raw: raw, level: level}
		g.wire = int64(float64(raw)/ratio) + 16
		g.packets = (g.wire + packet - 1) / packet
		g.compDone = compFree + compDur
		compFree = g.compDone

		// Incompressible pin, as the live engine would detect it.
		if level > 0 {
			ctrl.NotePacketRatio(level, int(raw), int(float64(raw)/ratio))
		}
		ctrl.NotePacketsSent(int(g.packets))

		// Emission overlaps compression within the group: packets enter
		// the FIFO as the compressor flushes them, so serialization can
		// begin roughly one packet's compression time after the buffer
		// starts — not only once the whole buffer is compressed. popTime
		// is when the emission thread picks the group up — the start of
		// the delivery window the live emitter timestamps.
		firstPacket := compStart
		if g.packets > 0 {
			firstPacket = compStart + compDur/time.Duration(g.packets)
		}
		popTime := maxDur(firstPacket, lastSendEnd)
		g.sendStart = popTime
		// Backpressure: wire bytes in flight beyond what the receiver
		// consumed must fit the socket buffer.
		if n := len(groups); n > 0 {
			// Find the most recent group whose consumption must complete
			// before this one may start (window of sockBuf wire bytes).
			var back int64
			for i := n - 1; i >= 0; i-- {
				back += groups[i].wire
				if back > sockBuf {
					if groups[i].consumeEnd > g.sendStart {
						g.sendStart = groups[i].consumeEnd
					}
					break
				}
			}
		}
		serDur := time.Duration(float64(g.wire) / bw * float64(time.Second))
		// The last byte cannot leave before it exists (compDone) nor
		// before the link has had serDur of air time.
		g.sendEnd = maxDur(g.sendStart+serDur, g.compDone)
		lastSendEnd = g.sendEnd

		// Receiver: arrival then decompression, FIFO.
		arrive := g.sendEnd + lat
		decompStart := maxDur(arrive, lastConsumeEnd)
		var decompDur time.Duration
		if level > 0 {
			decompDur = time.Duration(float64(raw) / (tp.DecompressBps * m.receiverCPU()) * float64(time.Second))
		}
		g.consumeEnd = decompStart + decompDur
		lastConsumeEnd = g.consumeEnd

		// Feed the divergence guard with the delivery the emission thread
		// would have measured: pop-to-write-end, which *includes* time
		// spent blocked on the receive window — that is how the live
		// sender feels a receiver too slow to decompress.
		ctrl.RecordDelivery(level, int(raw), g.sendEnd-popTime)

		groups = append(groups, g)
		cumPackets += g.packets
		wire += g.wire
		remaining -= raw
	}

	res.WireBytes = wire
	res.Duration = lastConsumeEnd
	if res.Duration < now+lat {
		res.Duration = now + lat
	}
	res.Divergences = ctrl.Stats().Divergences
	return res
}

// Echo simulates an AdOC ping-pong: the payload travels out, is fully
// received, then travels back through a fresh pipeline.
func (m *Model) Echo(size int64) Result {
	out := m.Transfer(size)
	back := m.Transfer(size)
	return Result{
		Duration:    out.Duration + back.Duration,
		RawBytes:    out.RawBytes + back.RawBytes,
		WireBytes:   out.WireBytes + back.WireBytes,
		Bypassed:    out.Bypassed || back.Bypassed,
		LevelCount:  sumCounts(out.LevelCount, back.LevelCount),
		Divergences: out.Divergences + back.Divergences,
	}
}

func sumCounts(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// String summarizes a result.
func (r Result) String() string {
	return fmt.Sprintf("dur=%v raw=%d wire=%d bypass=%v", r.Duration, r.RawBytes, r.WireBytes, r.Bypassed)
}
