package bench

import (
	"io"
	"testing"
	"time"

	"adoc"
	"adoc/internal/datagen"
	"adoc/internal/netsim"
)

// throttledSource yields endless compressible bytes at a bounded rate —
// an application producing data slower than a fast network but much
// faster than a congested one.
type throttledSource struct {
	pattern []byte
	off     int
	bps     float64
	chunk   int
}

func (s *throttledSource) Read(p []byte) (int, error) {
	n := min(len(p), s.chunk)
	for i := 0; i < n; i++ {
		p[i] = s.pattern[(s.off+i)%len(s.pattern)]
	}
	s.off += n
	time.Sleep(time.Duration(float64(n) / s.bps * float64(time.Second)))
	return n, nil
}

// TestControllerAdaptsToBandwidthDrop is the adaptivity regression test
// over a time-varying link: one long transfer rides through a scheduled
// bandwidth drop. While the network outruns the (throttled) source, the
// emission FIFO stays empty and the controller sits at the minimum
// level; when the link collapses mid-message, the FIFO backs up and
// Snapshot().Level must move up — the paper's core feedback loop,
// exercised end to end through the real engine. The adaptation state
// lives per message (each send owns its FIFO), which is why the test
// streams one message across the drop rather than many small ones.
func TestControllerAdaptsToBandwidthDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock adaptation run")
	}
	const (
		stepAt   = 400 * time.Millisecond
		runFor   = 1600 * time.Millisecond
		dropTo   = 0.005 // 200 MB/s -> 1 MB/s
		settleBy = 300 * time.Millisecond
		warmup   = 150 * time.Millisecond
		// ~20 MB/s offered load: far below the fast link (queue empty,
		// level pinned at the minimum), far above the congested one
		// (queue fills, the controller must climb).
		sourceBps = 20e6
	)
	prof := netsim.Profile{
		Name:         "fast-then-congested",
		BandwidthBps: 200e6,
		Latency:      200 * time.Microsecond,
		MTU:          16 * 1024,
		SocketBuf:    512 * 1024,
	}
	// Generated before the clock starts: under the race detector a cold
	// datagen call can outlast the whole sampling window.
	pattern := datagen.ASCII(1<<20, 42)
	start := time.Now()
	a, b := netsim.Pair(netsim.StepDown(prof, stepAt, dropTo))
	defer a.Close()
	defer b.Close()

	opts := adoc.DefaultOptions()
	opts.DisableProbe = true // a probe prefix would blur the phases
	sender, err := adoc.NewConn(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Drain whatever arrives; the receiver is never the bottleneck.
		receiver, err := adoc.NewConn(b, adoc.DefaultOptions())
		if err != nil {
			return
		}
		io.Copy(io.Discard, receiver)
	}()

	// One endless message; it dies with the connection when the test is
	// done sampling.
	src := &throttledSource{pattern: pattern, bps: sourceBps, chunk: 32 * 1024}
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		sender.SendStream(src, -1)
	}()

	var earlyMax, lateMax adoc.Level
	for time.Since(start) < runFor {
		lvl := sender.Stats().Adapt.Level
		elapsed := time.Since(start)
		switch {
		case elapsed > warmup && elapsed < stepAt:
			// Skip the cold start: the first buffers race ahead of the
			// emission loop and briefly queue regardless of the network.
			if lvl > earlyMax {
				earlyMax = lvl
			}
		case elapsed > stepAt+settleBy:
			if lvl > lateMax {
				lateMax = lvl
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	a.Close() // ends the endless send
	<-sendDone

	// Direction, not magnitude: after the drop the controller must sit
	// strictly higher than it ever did while the link was fast.
	if lateMax <= earlyMax {
		t.Fatalf("controller did not adapt: max level %d before the bandwidth drop, %d after",
			earlyMax, lateMax)
	}
	t.Logf("level moved %d -> %d across a %.0fx bandwidth drop", earlyMax, lateMax, 1/dropTo)
}
