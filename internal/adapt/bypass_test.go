package adapt

import (
	"testing"

	"adoc/internal/codec"
)

// drive pushes the controller's level up with a growing queue.
func drive(c *Controller, n int) codec.Level {
	var l codec.Level
	for i := 0; i < n; i++ {
		l = c.LevelForNextBuffer(15 + i) // mid band, rising: +1 per update
	}
	return l
}

// TestEntropyBypassRunPinsLevel: consecutive bypasses pin the level to the
// minimum; the first compressible buffer releases the pin.
func TestEntropyBypassRunPinsLevel(t *testing.T) {
	c := New(Config{Min: 0, Max: 10})
	if l := drive(c, 5); l == 0 {
		t.Fatalf("controller failed to rise under backlog (level %d)", l)
	}

	// One bypass is not a run — the level keeps adapting.
	c.NoteEntropyBypass()
	if l := c.LevelForNextBuffer(20); l == 0 {
		t.Fatalf("single bypass already pinned the level")
	}

	// A second consecutive bypass reaches DefaultBypassRunPin.
	c.NoteEntropyBypass()
	if l := c.LevelForNextBuffer(25); l != 0 {
		t.Fatalf("level = %d after bypass run, want pinned to 0", l)
	}
	if s := c.Snapshot(); s.BypassRun < DefaultBypassRunPin {
		t.Fatalf("Snapshot.BypassRun = %d, want >= %d", s.BypassRun, DefaultBypassRunPin)
	}

	// Compressible content ends the run immediately.
	c.NoteCompressibleContent()
	if l := drive(c, 3); l == 0 {
		t.Fatalf("level stayed pinned after the content run ended")
	}
	if s := c.Snapshot(); s.BypassRun != 0 {
		t.Fatalf("Snapshot.BypassRun = %d after release, want 0", s.BypassRun)
	}
	if s := c.Stats(); s.EntropyBypasses != 2 {
		t.Fatalf("Stats.EntropyBypasses = %d, want 2", s.EntropyBypasses)
	}
}

// TestBypassRespectsMinBound: with compression forced on (Min > 0) the
// bypass run pins to the forced minimum, not to zero — the engine-level
// probe may still ship raw groups, but the controller never violates its
// bounds.
func TestBypassRespectsMinBound(t *testing.T) {
	c := New(Config{Min: 2, Max: 10})
	drive(c, 5)
	c.NoteEntropyBypass()
	c.NoteEntropyBypass()
	if l := c.LevelForNextBuffer(25); l != 2 {
		t.Fatalf("level = %d under bypass run, want pinned to Min 2", l)
	}
}
