package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
)

// meteredLink is a write-only link on a manual clock. Like a kernel
// socket it absorbs up to absorb bytes into a buffer that drains at rate
// bytes per second of clock time; every byte beyond that advances the
// clock by its wire time. Only Write (or the test, to model idle time)
// moves the clock, so a back-to-back message never finds the buffer
// drained.
type meteredLink struct {
	clk    *clock.Manual
	rate   float64
	absorb int
	queued float64
	last   time.Time
	// goroutines is the most goroutines seen running during a Write.
	goroutines int
}

func newMeteredLink(rate float64, absorb int) *meteredLink {
	clk := clock.NewManual(time.Unix(0, 0))
	return &meteredLink{clk: clk, rate: rate, absorb: absorb, last: clk.Now()}
}

func (l *meteredLink) Write(p []byte) (int, error) {
	now := l.clk.Now()
	l.queued = math.Max(0, l.queued-l.rate*now.Sub(l.last).Seconds())
	l.queued += float64(len(p))
	if over := l.queued - float64(l.absorb); over > 0 {
		l.clk.Advance(time.Duration(over / l.rate * float64(time.Second)))
		l.queued = float64(l.absorb)
	}
	l.last = l.clk.Now()
	l.goroutines = max(l.goroutines, runtime.NumGoroutine())
	return len(p), nil
}

func (*meteredLink) Read([]byte) (int, error) { return 0, io.EOF }

// meteredEngine is an engine on l's clock with the default options
// except for SmallThreshold; probes counts the messages that sent a probe
// prefix.
func meteredEngine(t *testing.T, l *meteredLink, smallThreshold int, probes *int) *Engine {
	t.Helper()
	o := DefaultOptions()
	o.Clock = l.clk
	o.SmallThreshold = smallThreshold
	o.Trace.OnProbe = func(float64, bool) { *probes++ }
	e, err := New(l, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestLinkEstimateFastLinkProbesOnce: on a 1 GB/s link the first stream
// message probes and bypasses; later ones bypass without a probe prefix,
// so they go out raw (wire = payload plus framing) despite compressing
// well, and on the caller's goroutine alone. Idle time between messages
// does not count against the link. Without the probe the controller
// would compress these messages, their samples would time the compressor
// rather than the link, and the bypass would never start.
func TestLinkEstimateFastLinkProbesOnce(t *testing.T) {
	l := newMeteredLink(1e9, 0)
	probes := 0
	e := meteredEngine(t, l, DefaultSmallThreshold, &probes)
	msg := compressibleData(1 << 20)
	prev := e.Stats()
	for i := 0; i < 4; i++ {
		l.clk.Advance(time.Second)
		before := runtime.NumGoroutine()
		l.goroutines = 0
		if _, err := e.WriteMessage(msg); err != nil {
			t.Fatal(err)
		}
		if l.goroutines > before {
			t.Fatalf("message %d: %d goroutines during the bypass, %d before it", i, l.goroutines, before)
		}
		s := e.Stats()
		if s.ProbeBypasses != prev.ProbeBypasses+1 {
			t.Fatalf("message %d did not take the fast-link bypass (estimate %.3g B/s)", i, e.link.Bps())
		}
		if wireN := s.WireSent - prev.WireSent; wireN < int64(len(msg)) {
			t.Fatalf("message %d: %d wire bytes for %d raw; a bypassed message is not compressed", i, wireN, len(msg))
		}
		prev = s
	}
	if probes != 1 {
		t.Fatalf("%d messages sent a probe prefix, want only the first", probes)
	}
	if bps := e.link.Bps(); bps < 0.5e9 || bps > 2e9 {
		t.Fatalf("link estimate %.3g B/s on a 1 GB/s link", bps)
	}
}

// TestLinkEstimateSlowLinkNeverLooksFast is the gate for the absorbing
// socket buffer: a 1 MB/s link that takes 128 KB without blocking must
// never have a message bypass compression, whatever the small-message
// threshold and message size. Back to back, the buffer stays full after
// the first burst; with idle time between messages it drains and absorbs
// the head of every message, so short messages would add up to samples of
// absorbed bytes alone were a sample allowed to span messages. Both a
// compressible and an incompressible payload are sent; the latter puts
// its whole size on the wire, so every message of DefaultProbeSize or more
// closes samples.
func TestLinkEstimateSlowLinkNeverLooksFast(t *testing.T) {
	// A long run of short messages first, so they would be all an
	// estimate had to go on, then every size.
	var sizes []int
	for range 4 {
		sizes = append(sizes, 100<<10, 16<<10, 64<<10, 200<<10, 100<<10, 16<<10, 64<<10, 200<<10)
	}
	sizes = append(sizes, 16<<10, 64<<10, 200<<10, 1<<20, 16<<10, 4<<20, 300<<10, 16<<10, 2<<20)
	data := map[string]func(n, i int) []byte{
		"compressible":   func(n, _ int) []byte { return compressibleData(n) },
		"incompressible": func(n, i int) []byte { return incompressibleData(n, int64(i)) },
	}
	for _, kind := range []string{"compressible", "incompressible"} {
		for _, idle := range []time.Duration{0, time.Second} {
			for _, small := range []int{8 << 10, 64 << 10, DefaultSmallThreshold} {
				t.Run(fmt.Sprintf("%s/idle%v/small%dKB", kind, idle, small>>10), func(t *testing.T) {
					l := newMeteredLink(1e6, 128<<10)
					probes := 0
					e := meteredEngine(t, l, small, &probes)
					for i, n := range sizes {
						l.clk.Advance(idle)
						if _, err := e.WriteMessage(data[kind](n, i)); err != nil {
							t.Fatal(err)
						}
						if e.Stats().ProbeBypasses != 0 {
							t.Fatalf("message %d (%d KB) bypassed compression on a 1 MB/s link (estimate %.3g B/s)",
								i, n>>10, e.link.Bps())
						}
					}
					if bps := e.link.Bps(); bps == 0 || bps > DefaultFastCutoffBps {
						t.Fatalf("link estimate %.3g B/s after %d messages on a 1 MB/s link", bps, len(sizes))
					}
				})
			}
		}
	}
}

// slowSource is a message source that produces at rate bytes per second
// of clock time, in reads of at most 64 KB. Each read also sleeps a real
// millisecond, so the pipeline hands each buffer to the emitter before
// the next one is read, as it would if production really took that long.
type slowSource struct {
	r    io.Reader
	clk  *clock.Manual
	rate float64
}

func (s slowSource) Read(p []byte) (int, error) {
	n, err := s.r.Read(p[:min(len(p), 64<<10)])
	time.Sleep(time.Millisecond)
	s.clk.Advance(time.Duration(float64(n) / s.rate * float64(time.Second)))
	return n, err
}

// TestLinkEstimateProducerBoundNeverLooksFast: on a 100 Mbit/s link
// (12.5 MB/s, below the cutoff) fed at 4 MB/s in 64 KB buffers, the
// socket buffer (128 KB) drains between buffers faster than the pipeline
// fills it, so after the probe no Write blocks. The estimate must still
// read the link as slow, since a sample spans the time between its
// Writes, so no message bypasses compression.
func TestLinkEstimateProducerBoundNeverLooksFast(t *testing.T) {
	l := newMeteredLink(12.5e6, 128<<10)
	o := DefaultOptions()
	o.Clock = l.clk
	o.BufferSize = 64 << 10
	e, err := New(l, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 12; i++ {
		src := slowSource{r: bytes.NewReader(incompressibleData(1<<20, int64(i))), clk: l.clk, rate: 4e6}
		if _, _, err := e.SendMessageLevels(src, 1<<20, codec.MinLevel, codec.MaxLevel); err != nil {
			t.Fatal(err)
		}
		if e.Stats().ProbeBypasses != 0 {
			t.Fatalf("message %d bypassed compression on a 12.5 MB/s link (estimate %.3g B/s)", i, e.link.Bps())
		}
	}
	if bps := e.link.Bps(); bps == 0 || bps > DefaultFastCutoffBps {
		t.Fatalf("link estimate %.3g B/s after 12 producer-bound messages on a 12.5 MB/s link", bps)
	}
}

// TestLinkEstimateFollowsSwitches: when a fast link turns slow the bypass
// stops within two messages (the one already decided, then the next), and
// when it turns fast again the bypass resumes within eight 1 MB messages;
// each verdict then holds while the link does not change.
func TestLinkEstimateFollowsSwitches(t *testing.T) {
	const fast, slow = 1e9, 1e6
	l := newMeteredLink(fast, 0)
	probes := 0
	e := meteredEngine(t, l, DefaultSmallThreshold, &probes)
	// Incompressible payload keeps the wire bytes per message, and so the
	// samples per message, the same at every level.
	msg := incompressibleData(1<<20, 7)
	send := func() bool {
		t.Helper()
		before := e.Stats().ProbeBypasses
		if _, err := e.WriteMessage(msg); err != nil {
			t.Fatal(err)
		}
		return e.Stats().ProbeBypasses > before
	}
	// phase sends msgs messages at rate and requires the bypass verdict to
	// reach want within bound messages and then hold.
	phase := func(name string, rate float64, want bool, bound, msgs int) {
		t.Helper()
		l.rate = rate
		reached := -1
		for i := 0; i < msgs; i++ {
			got := send()
			switch {
			case got == want && reached < 0:
				reached = i
			case got != want && reached >= 0:
				t.Fatalf("%s: message %d reverted to bypass=%v after message %d settled", name, i, got, reached)
			}
		}
		if reached < 0 || reached >= bound {
			t.Fatalf("%s: bypass=%v first at message %d, want within %d (estimate %.3g B/s)",
				name, want, reached, bound, e.link.Bps())
		}
	}
	phase("fast", fast, true, 1, 4)
	phase("fast→slow", slow, false, 2, 6)
	phase("slow→fast", fast, true, 8, 12)
	if probes != 1 {
		t.Fatalf("%d messages sent a probe prefix, want only the first", probes)
	}
}

// TestSendMessageReusesBuffers bounds what SendMessage allocates per
// send: the known-size small payload and the unknown-size peek come from
// the buffer pool, not from a fresh buffer per call (the peek alone is
// SmallThreshold, 512 KB).
func TestSendMessageReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector; CI runs this without -race")
	}
	e, err := New(&rawConn{Reader: bytes.NewReader(nil)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	payload := compressibleData(64 << 10)
	cases := []struct {
		name string
		size int64
	}{
		{"known-size", int64(len(payload))},
		{"unknown-size", -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const sends = 200
			send := func() {
				if _, _, err := e.SendMessageLevels(bytes.NewReader(payload), c.size, codec.MinLevel, codec.MaxLevel); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.GC()
			send() // refill the pool the collection emptied
			runtime.ReadMemStats(&before)
			for i := 0; i < sends; i++ {
				send()
			}
			runtime.ReadMemStats(&after)
			if perSend := (after.TotalAlloc - before.TotalAlloc) / sends; perSend > 8<<10 {
				t.Fatalf("%d bytes allocated per %d KB send, want at most 8 KB", perSend, len(payload)>>10)
			}
		})
	}
}

// TestLinkEstimateWriteSizeNeutral: a sample weighs by its bytes, so after
// a slow→fast switch the same byte stream crosses DefaultFastCutoffBps
// within the same message whether it goes out in packet-sized (8 KB)
// Writes or in buffer-sized (200 KB) ones, which close fewer, longer
// samples. Weighing every sample alike, the 200 KB Writes cross a
// message later.
func TestLinkEstimateWriteSizeNeutral(t *testing.T) {
	const msg = 8 * DefaultBufferSize // 1600 KB: 8 Writes of 200 KB, 200 of 8 KB
	crossing := func(write int) int {
		t.Helper()
		var l linkEstimate
		now := time.Unix(0, 0)
		send := func(rate float64) {
			l.startMessage()
			for sent := 0; sent < msg; sent += write {
				n := min(write, msg-sent)
				end := now.Add(time.Duration(float64(n) / rate * float64(time.Second)))
				l.add(n, now, end)
				now = end
			}
		}
		for range 4 {
			send(1e6)
		}
		if bps := l.Bps(); bps > DefaultFastCutoffBps {
			t.Fatalf("%d B Writes: estimate %.3g B/s after four messages at 1 MB/s", write, bps)
		}
		for i := range 12 {
			send(1e9)
			if l.Bps() > DefaultFastCutoffBps {
				return i
			}
		}
		t.Fatalf("%d B Writes: estimate %.3g B/s after twelve messages at 1 GB/s", write, l.Bps())
		return -1
	}
	small, large := crossing(DefaultPacketSize), crossing(DefaultBufferSize)
	if small != large {
		t.Fatalf("after the switch, 8 KB Writes cross the cutoff in message %d and 200 KB Writes in message %d", small, large)
	}
}
