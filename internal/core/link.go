package core

import (
	"math"
	"sync/atomic"
	"time"
)

// linkWeight is the weight of a new sample of DefaultProbeSize bytes in
// the link estimate's moving average.
const linkWeight = 0.25

// linkEstimate is the connection's measured link speed (paper §5 "Fast
// Networks", carried across messages instead of probed per message):
// wire bytes per second of one message's socket Writes. emit feeds it
// every Write the sender makes.
//
// A sample runs from the start of its first Write to the end of the Write
// that brings it to DefaultProbeSize wire bytes of one message. Time
// the writer spends between Writes waiting for its producer (the
// compression pool, or the source on the raw bypass) counts against the
// link, so a producer-bound sample under-reads it: errors land on the
// adaptive side. Idle time between messages would count the same way,
// so startMessage drops the open sample and no sample spans two
// messages. A socket buffer that absorbs a short burst without blocking
// cannot make a slow link look fast: a message shorter than
// DefaultProbeSize closes no sample, and a buffer of up to half of it can
// at most double the first sample of a message; later samples of the
// message find it full.
//
// Closed samples fold into a moving average of seconds per byte rather
// than bytes per second: one slow sample pulls a fast estimate down at
// once, while a slow estimate needs several fast samples to rise. A
// sample weighs by its bytes: one of k·DefaultProbeSize moves the average
// as far as k samples of DefaultProbeSize would, so the estimate follows
// the same byte stream at the same pace whether it went out in packet-
// sized Writes or in buffer-sized ones, which close fewer, longer
// samples.
//
// The open sample and the average belong to whoever holds the engine's
// wmu (the writer, or the emitter it waits for); bps is published
// atomically for readers that do not hold wmu, such as /debug/conns.
type linkEstimate struct {
	bytes   int
	start   time.Time // start of the open sample's first Write
	secPerB float64   // moving average; 0 until the first sample closes
	bps     atomic.Uint64
}

// add records one Write of n wire bytes that ran from start to end.
func (l *linkEstimate) add(n int, start, end time.Time) {
	if l.bytes == 0 {
		l.start = start
	}
	l.bytes += n
	if l.bytes < DefaultProbeSize {
		return
	}
	s := maxSeconds(end.Sub(l.start)) / float64(l.bytes)
	if l.secPerB == 0 {
		l.secPerB = s
	} else {
		w := 1 - math.Pow(1-linkWeight, float64(l.bytes)/DefaultProbeSize)
		l.secPerB += w * (s - l.secPerB)
	}
	l.bytes = 0
	l.bps.Store(math.Float64bits(1 / l.secPerB))
}

// startMessage drops the open sample at the start of a stream message.
func (l *linkEstimate) startMessage() { l.bytes = 0 }

// Bps returns the estimate in bytes per second, 0 before the first
// sample closes. Safe without wmu.
func (l *linkEstimate) Bps() float64 { return math.Float64frombits(l.bps.Load()) }

// maxSeconds avoids division by zero on clocks with coarse resolution.
func maxSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 1e-9
	}
	return s
}
