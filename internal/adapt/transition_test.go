package adapt

import (
	"testing"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/obs"
)

// collectTransitions returns a controller whose transitions append to the
// returned slice pointer.
func collectTransitions(cfg Config) (*Controller, *[]Transition) {
	var got []Transition
	cfg.OnTransition = func(tr Transition) { got = append(got, tr) }
	return New(cfg), &got
}

func TestTransitionCauseQueue(t *testing.T) {
	c, got := collectTransitions(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0))})
	c.LevelForNextBuffer(15) // establishes delta baseline, stays at 0
	c.LevelForNextBuffer(25) // delta>0 in the high band: +2
	if len(*got) != 1 {
		t.Fatalf("got %d transitions, want 1: %+v", len(*got), *got)
	}
	tr := (*got)[0]
	if tr.From != 0 || tr.To != 2 || tr.Cause != CauseQueue {
		t.Fatalf("transition = %+v, want 0->2 cause=queue", tr)
	}
	if tr.At.IsZero() {
		t.Fatal("transition timestamp not set")
	}
}

func TestTransitionCauseDivergence(t *testing.T) {
	c, got := collectTransitions(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0))})
	c.RecordDelivery(0, 10_000_000, time.Second)
	for l := codec.Level(1); l <= 5; l++ {
		c.RecordDelivery(l, 2_000_000, time.Second)
	}
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(25)
	// The queue proposed level 2 but the divergence guard demoted to 0;
	// the level never moved, so no transition fires (0 -> 0). Climb once
	// more from a clean controller to observe an actual demotion.
	for _, tr := range *got {
		if tr.Cause == CauseDivergence && tr.From == tr.To {
			t.Fatalf("self-transition reported: %+v", tr)
		}
	}

	// Now a controller already sitting at a diverging level.
	c2, got2 := collectTransitions(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0))})
	c2.LevelForNextBuffer(15)
	c2.LevelForNextBuffer(25) // at level 2 now
	c2.RecordDelivery(0, 10_000_000, time.Second)
	c2.RecordDelivery(2, 2_000_000, time.Second)
	c2.RecordDelivery(3, 2_000_000, time.Second)
	c2.RecordDelivery(4, 2_000_000, time.Second)
	c2.LevelForNextBuffer(25) // proposes higher, guard demotes to 0
	last := (*got2)[len(*got2)-1]
	if last.Cause != CauseDivergence || last.To != 0 {
		t.Fatalf("last transition = %+v, want cause=divergence to=0", last)
	}
}

func TestTransitionCausePenalty(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	c, got := collectTransitions(Config{Min: 0, Max: 10, Clock: clk})
	c.RecordDelivery(0, 10_000_000, time.Second)
	c.RecordDelivery(2, 2_000_000, time.Second)
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(25) // divergence: 2 forbidden, level 0
	// Next climb proposes level 2 again; the standing penalty steps it
	// down to 1, so the 0->1 move is caused by the penalty filter.
	c.LevelForNextBuffer(35)
	last := (*got)[len(*got)-1]
	if last.Cause != CausePenalty || last.To != 1 {
		t.Fatalf("last transition = %+v, want cause=penalty to=1", last)
	}
}

func TestTransitionCausePin(t *testing.T) {
	c, got := collectTransitions(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0))})
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(25) // level 2
	c.NotePacketRatio(2, 1000, 999)
	c.LevelForNextBuffer(25) // pin overrides the queue rule
	last := (*got)[len(*got)-1]
	if last.Cause != CausePin || last.To != 0 {
		t.Fatalf("last transition = %+v, want cause=pin to=0", last)
	}
}

func TestTransitionCauseBypass(t *testing.T) {
	c, got := collectTransitions(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0))})
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(25) // level 2
	c.NoteEntropyBypass()
	c.NoteEntropyBypass()
	c.LevelForNextBuffer(25)
	last := (*got)[len(*got)-1]
	if last.Cause != CauseBypass || last.To != 0 {
		t.Fatalf("last transition = %+v, want cause=bypass to=0", last)
	}
}

// TestControllerMetricsRegistry checks the counters feed registry family
// roots: two controllers on one registry sum there while each Stats()
// stays per-controller.
func TestControllerMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(100, 0)), Metrics: reg}
	c1 := New(cfg)
	c2 := New(cfg)
	c1.LevelForNextBuffer(0)
	c1.LevelForNextBuffer(0)
	c2.LevelForNextBuffer(0)
	if got := c1.Stats().Updates; got != 2 {
		t.Fatalf("c1 updates = %d, want 2", got)
	}
	if got := c2.Stats().Updates; got != 1 {
		t.Fatalf("c2 updates = %d, want 1", got)
	}
	if got := reg.Counter(MetricUpdates, "").Value(); got != 3 {
		t.Fatalf("registry updates root = %d, want 3", got)
	}
	if got := reg.Counter(MetricLevelBuffers, "", obs.Label{Name: "level", Value: "0"}).Value(); got != 3 {
		t.Fatalf("registry level-0 buffers = %d, want 3", got)
	}
}
