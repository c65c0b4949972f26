package adapt

import (
	"testing"
	"testing/quick"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
)

// TestNextLevelFigure2 checks every branch of the paper's Figure 2 update
// rule against hand-computed expectations.
func TestNextLevelFigure2(t *testing.T) {
	const min, max = codec.MinLevel, codec.MaxLevel
	cases := []struct {
		name  string
		n     int
		delta int
		l     codec.Level
		want  codec.Level
	}{
		{"empty queue resets to min", 0, +5, 8, min},
		{"n<10 delta<=0 halves (8)", 5, 0, 8, 4},
		{"n<10 delta<0 halves (7)", 5, -1, 7, 3},
		{"n<10 delta>0 keeps", 5, +1, 6, 6},
		{"n<10 halving clamps at min", 3, -2, 0, 0},
		{"10<=n<20 delta>0 increments", 15, +1, 4, 5},
		{"10<=n<20 delta<0 decrements", 15, -1, 4, 3},
		{"10<=n<20 delta=0 keeps", 15, 0, 4, 4},
		{"20<=n<30 delta>0 +2", 25, +3, 4, 6},
		{"20<=n<30 delta<0 -1", 25, -3, 4, 3},
		{"20<=n<30 delta=0 keeps", 25, 0, 4, 4},
		{"n>=30 delta>0 +2", 35, +1, 4, 6},
		{"n>=30 delta<=0 keeps", 35, -4, 4, 4},
		{"n>=30 delta=0 keeps", 100, 0, 9, 9},
		{"clamp to max", 35, +1, 10, 10},
		{"clamp to max from 9", 25, +1, 9, 10},
		{"boundary n=10 behaves as mid band", 10, -1, 4, 3},
		{"boundary n=20 behaves as high band", 20, +1, 4, 6},
		{"boundary n=30 behaves as top band", 30, -1, 4, 4},
	}
	for _, tc := range cases {
		if got := NextLevel(tc.n, tc.delta, tc.l, min, max); got != tc.want {
			t.Errorf("%s: NextLevel(%d,%d,%d) = %d, want %d", tc.name, tc.n, tc.delta, tc.l, got, tc.want)
		}
	}
}

func TestNextLevelRespectsBounds(t *testing.T) {
	// With min=2 (forced compression) an empty queue returns min, not 0.
	if got := NextLevel(0, 0, 8, 2, 10); got != 2 {
		t.Errorf("forced-compression empty queue: got %d, want 2", got)
	}
	if got := NextLevel(35, 1, 3, 0, 4); got != 4 {
		t.Errorf("max clamp: got %d, want 4", got)
	}
}

func TestQuickNextLevelInvariants(t *testing.T) {
	f := func(n uint16, delta int8, l uint8) bool {
		lev := codec.Level(l % 11)
		got := NextLevel(int(n), int(delta), lev, codec.MinLevel, codec.MaxLevel)
		if !got.Valid() {
			return false
		}
		// The level never jumps by more than +2 and never increases when
		// the queue shrinks.
		if got > lev+2 {
			return false
		}
		if delta < 0 && int(n) > 0 && got > lev {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func newTestController(clk clock.Clock) *Controller {
	return New(Config{Min: codec.MinLevel, Max: codec.MaxLevel, Clock: clk})
}

func TestControllerStartsAtMin(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	if c.Level() != codec.MinLevel {
		t.Fatalf("initial level = %v, want min", c.Level())
	}
}

func TestControllerRampsUpWithGrowingQueue(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	// Growing queue in the 10..19 band: level rises by 1 per update.
	lvl := c.LevelForNextBuffer(12)
	for i := 0; i < 12; i++ {
		lvl = c.LevelForNextBuffer(13 + i)
	}
	if lvl < 8 {
		t.Fatalf("level after sustained queue growth = %v, want >= 8", lvl)
	}
}

func TestControllerDropsOnEmptyQueue(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	for i := 0; i < 10; i++ {
		c.LevelForNextBuffer(25 + i)
	}
	if got := c.LevelForNextBuffer(0); got != codec.MinLevel {
		t.Fatalf("level on empty queue = %v, want min", got)
	}
}

func TestControllerHalvesOnSmallShrinkingQueue(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	c.LevelForNextBuffer(25)
	c.LevelForNextBuffer(28) // +2 -> level 2
	c.LevelForNextBuffer(29) // +2 -> level 4
	if got := c.Level(); got != 4 {
		t.Fatalf("setup level = %v, want 4", got)
	}
	if got := c.LevelForNextBuffer(5); got != 2 {
		t.Fatalf("small shrinking queue: level = %v, want 4/2 = 2", got)
	}
}

func TestDivergenceGuardDemotes(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	var from, to codec.Level
	c := New(Config{
		Min: 0, Max: 10, Clock: clk,
		OnDivergence: func(f, tt codec.Level) { from, to = f, tt },
	})
	// Raw delivery achieved 10 MB/s; every compressed level the sender has
	// tried only reached 2 MB/s (a receiver too slow to decompress).
	c.RecordDelivery(0, 10_000_000, time.Second)
	for l := codec.Level(1); l <= 5; l++ {
		c.RecordDelivery(l, 2_000_000, time.Second)
	}
	// A growing queue proposes a higher level; the guard must demote to
	// level 0 (the best recorded bandwidth) instead.
	c.LevelForNextBuffer(15)
	got := c.LevelForNextBuffer(25)
	if got != 0 {
		t.Fatalf("divergence guard: level = %v, want 0", got)
	}
	if from == 0 && to == 0 {
		t.Fatal("OnDivergence not invoked")
	}
	st := c.Stats()
	if st.Divergences == 0 {
		t.Fatal("divergence counter not incremented")
	}
}

func TestDivergenceGuardForbidsFor1s(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	c := New(Config{Min: 0, Max: 10, Clock: clk})
	c.RecordDelivery(0, 10_000_000, time.Second)
	c.RecordDelivery(1, 1_000_000, time.Second)
	// Reach level 1 then trigger the guard.
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(16) // delta>0 -> level 1
	got := c.LevelForNextBuffer(17)
	if got != 0 {
		t.Fatalf("expected demotion to 0, got %v", got)
	}
	// While forbidden, growing queues cannot re-reach level 1.
	got = c.LevelForNextBuffer(18)
	if got != 0 {
		t.Fatalf("forbidden level reused: got %v", got)
	}
	// After 1 second the level may be tried again (the guard still sees
	// worse bandwidth, so clear the record as if conditions changed).
	clk.Advance(1100 * time.Millisecond)
	c.RecordDelivery(1, 20_000_000, time.Second) // conditions improved
	got = c.LevelForNextBuffer(19)
	if got != 1 {
		t.Fatalf("after forbid expiry: got %v, want 1", got)
	}
}

func TestDivergenceGuardDisabled(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	c := New(Config{Min: 0, Max: 10, Clock: clk, DisableDivergenceGuard: true})
	c.RecordDelivery(0, 10_000_000, time.Second)
	c.RecordDelivery(1, 1_000_000, time.Second)
	c.LevelForNextBuffer(15)
	got := c.LevelForNextBuffer(16)
	if got != 1 {
		t.Fatalf("guard disabled but level = %v, want 1", got)
	}
}

func TestIncompressibleGuardPins(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	c := New(Config{Min: 0, Max: 10, Clock: clk})
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(16)
	if c.Level() != 1 {
		t.Fatalf("setup: level = %v, want 1", c.Level())
	}
	// A packet that failed to compress: 8192 raw -> 8190 wire bytes.
	if !c.NotePacketRatio(1, 8192, 8190) {
		t.Fatal("NotePacketRatio did not request buffer abandonment")
	}
	// Pinned to min for the next 10 packets even though the queue grows.
	if got := c.LevelForNextBuffer(25); got != 0 {
		t.Fatalf("pinned level = %v, want 0", got)
	}
	c.NotePacketsSent(9)
	if got := c.LevelForNextBuffer(26); got != 0 {
		t.Fatalf("still pinned at 9 packets: level = %v, want 0", got)
	}
	c.NotePacketsSent(1)
	if got := c.LevelForNextBuffer(27); got == 0 {
		t.Fatalf("pin expired but level still 0")
	}
	if st := c.Stats(); st.Pins != 1 {
		t.Fatalf("pin counter = %d, want 1", st.Pins)
	}
}

func TestIncompressibleGuardGoodRatioNoPin(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	if c.NotePacketRatio(3, 8192, 4096) {
		t.Fatal("good ratio triggered the guard")
	}
	if st := c.Stats(); st.Pins != 0 {
		t.Fatal("pin recorded for good ratio")
	}
}

// TestIncompressibleGuardDisabled: the guard stays off where a ratio
// means nothing — raw level-0 packets, which never shrink, and empty
// packets.
func TestIncompressibleGuardDisabled(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	if c.NotePacketRatio(codec.MinLevel, 8192, 8192) {
		t.Fatal("guard triggered on a raw level-0 packet")
	}
	if c.NotePacketRatio(3, 0, 0) {
		t.Fatal("guard triggered on an empty packet")
	}
	if st := c.Stats(); st.Pins != 0 {
		t.Fatalf("Pins = %d, want 0", st.Pins)
	}
}

func TestRecordDeliveryEWMA(t *testing.T) {
	c := New(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(0, 0))})
	c.RecordDelivery(3, 1000, time.Second) // 1000 B/s
	c.RecordDelivery(3, 3000, time.Second) // EWMA: 0.5*3000 + 0.5*1000 = 2000
	bps, ok := c.Bandwidth(3)
	if !ok {
		t.Fatal("no bandwidth sample recorded")
	}
	if bps < 1999 || bps > 2001 {
		t.Fatalf("EWMA = %v, want 2000", bps)
	}
}

func TestRecordDeliveryIgnoresGarbage(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	c.RecordDelivery(3, 0, time.Second)
	c.RecordDelivery(3, 100, 0)
	c.RecordDelivery(codec.Level(42), 100, time.Second)
	if _, ok := c.Bandwidth(3); ok {
		t.Fatal("garbage sample was recorded")
	}
}

func TestForcedCompressionBounds(t *testing.T) {
	// min=2 forces compression (paper §4.1: "setting min to
	// ADOC_MIN_LEVEL+1 forces the compression").
	c := New(Config{Min: 2, Max: 10, Clock: clock.NewManual(time.Unix(0, 0))})
	if got := c.LevelForNextBuffer(0); got != 2 {
		t.Fatalf("forced min on empty queue: %v, want 2", got)
	}
	// max=0 disables compression ("setting max to ADOC_MIN_LEVEL disables
	// the compression").
	c2 := New(Config{Min: 0, Max: 0, Clock: clock.NewManual(time.Unix(0, 0))})
	for i := 0; i < 20; i++ {
		if got := c2.LevelForNextBuffer(25 + i); got != 0 {
			t.Fatalf("disabled compression produced level %v", got)
		}
	}
}

func TestNewPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with min>max did not panic")
		}
	}()
	New(Config{Min: 5, Max: 3})
}

func TestStatsLevelCount(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(16)
	c.LevelForNextBuffer(17)
	st := c.Stats()
	if st.Updates != 3 {
		t.Fatalf("Updates = %d, want 3", st.Updates)
	}
	var total int64
	for _, n := range st.LevelCount {
		total += n
	}
	if total != 3 {
		t.Fatalf("sum(LevelCount) = %d, want 3", total)
	}
}

func TestConcurrentControllerAccess(t *testing.T) {
	c := newTestController(clock.Real{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			c.RecordDelivery(codec.Level(i%11), 1000+i, time.Millisecond)
			c.NotePacketsSent(1)
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		c.LevelForNextBuffer(i % 40)
		c.NotePacketRatio(codec.Level(i%11), 8192, 8000+i%400)
	}
	<-done
	c.Stats() // must not race
}

func TestSetBounds(t *testing.T) {
	c := New(Config{Min: 0, Max: 10, Clock: clock.NewManual(time.Unix(0, 0))})
	// Drive the level up, then disable compression per-call.
	c.LevelForNextBuffer(25)
	c.LevelForNextBuffer(28)
	c.LevelForNextBuffer(29)
	if c.Level() == 0 {
		t.Fatal("setup: level did not rise")
	}
	if err := c.SetBounds(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 0 {
		t.Fatalf("SetBounds(0,0) left level %v", c.Level())
	}
	for i := 0; i < 5; i++ {
		if got := c.LevelForNextBuffer(30 + i); got != 0 {
			t.Fatalf("disabled bounds produced level %v", got)
		}
	}
	// Force compression back on.
	if err := c.SetBounds(3, 8); err != nil {
		t.Fatal(err)
	}
	if got := c.LevelForNextBuffer(0); got != 3 {
		t.Fatalf("forced min after SetBounds: %v, want 3", got)
	}
	if min, max := c.Bounds(); min != 3 || max != 8 {
		t.Fatalf("Bounds = %v,%v", min, max)
	}
}

func TestSetBoundsRejectsInvalid(t *testing.T) {
	c := newTestController(clock.NewManual(time.Unix(0, 0)))
	if err := c.SetBounds(5, 2); err == nil {
		t.Fatal("min>max accepted")
	}
	if err := c.SetBounds(-1, 4); err == nil {
		t.Fatal("negative min accepted")
	}
	if err := c.SetBounds(0, 42); err == nil {
		t.Fatal("out-of-range max accepted")
	}
}

// TestSnapshot checks the exported decision-state view: level, bounds,
// pin countdown, forbidden set with remaining penalties, and bandwidth
// EWMAs all reflect the controller's internals.
func TestSnapshot(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	c := New(Config{Min: 0, Max: 10, Clock: clk})

	// Seed bandwidth history that will trip the divergence guard.
	c.RecordDelivery(0, 10_000_000, time.Second)
	for l := codec.Level(1); l <= 5; l++ {
		c.RecordDelivery(l, 2_000_000, time.Second)
	}
	c.LevelForNextBuffer(15)
	c.LevelForNextBuffer(25) // guard demotes and forbids the candidate

	s := c.Snapshot()
	if s.Level != c.Level() {
		t.Fatalf("snapshot level %v, controller says %v", s.Level, c.Level())
	}
	if s.Min != 0 || s.Max != 10 {
		t.Fatalf("snapshot bounds [%d,%d], want [0,10]", s.Min, s.Max)
	}
	if len(s.ForbiddenFor) != int(codec.MaxLevel)+1 || len(s.BandwidthBps) != int(codec.MaxLevel)+1 {
		t.Fatalf("snapshot slices sized %d/%d, want %d", len(s.ForbiddenFor), len(s.BandwidthBps), int(codec.MaxLevel)+1)
	}
	forb := s.Forbidden()
	if len(forb) == 0 {
		t.Fatal("divergence guard fired but snapshot forbids nothing")
	}
	for _, l := range forb {
		if got := s.ForbiddenFor[l]; got <= 0 || got > DefaultForbidFor {
			t.Fatalf("forbidden level %v has remaining penalty %v", l, got)
		}
	}
	if s.BandwidthBps[0] != 10_000_000 {
		t.Fatalf("level-0 EWMA = %v, want 10MB/s", s.BandwidthBps[0])
	}
	if s.BandwidthBps[9] != 0 {
		t.Fatalf("never-delivered level has EWMA %v, want 0", s.BandwidthBps[9])
	}

	// Advance past the penalty: the forbidden set must empty out.
	clk.Advance(2 * DefaultForbidFor)
	if forb := c.Snapshot().Forbidden(); len(forb) != 0 {
		t.Fatalf("penalty expired but %v still forbidden", forb)
	}

	// Pin countdown surfaces.
	c.NotePacketRatio(5, 1000, 1000) // no gain: pins
	if got := c.Snapshot().PinRemaining; got != DefaultPinPackets {
		t.Fatalf("PinRemaining = %d, want %d", got, DefaultPinPackets)
	}
	c.NotePacketsSent(3)
	if got := c.Snapshot().PinRemaining; got != DefaultPinPackets-3 {
		t.Fatalf("PinRemaining after 3 packets = %d, want %d", got, DefaultPinPackets-3)
	}
}
