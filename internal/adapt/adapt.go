// Package adapt implements the AdOC compression-level controller: the
// queue-driven update rule of paper Figure 2, the divergence guard and the
// incompressible-data guard of paper §5. The controller is pure policy — it
// observes queue occupancy and delivery bandwidth reported by the engine
// and answers one question: at which level should the next buffer be
// compressed?
package adapt

import (
	"strconv"
	"sync"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/obs"
)

// Default thresholds, straight from the paper.
const (
	// Queue-occupancy bands of Figure 2.
	DefaultLowQueue  = 10
	DefaultMidQueue  = 20
	DefaultHighQueue = 30
	// DefaultForbidFor is how long a diverging level is forbidden
	// (paper §5: "forbids the previous compression level for 1 second").
	DefaultForbidFor = time.Second
	// DefaultPinPackets is how many packets stay at the minimum level
	// after incompressible data is detected (paper §5: "set the
	// compression level to its minimal value for the next 10 packets").
	DefaultPinPackets = 10
	// DefaultMinGainRatio is the minimum useful compression ratio: a
	// packet that compresses worse than this triggers the incompressible
	// guard.
	DefaultMinGainRatio = 1.05
	// DefaultEWMAAlpha weights new bandwidth samples in the per-level
	// exponential moving average.
	DefaultEWMAAlpha = 0.5
	// DefaultBypassRunPin is how many consecutive entropy-bypassed buffers
	// it takes before the controller stops asking for compression at all —
	// the content-run analogue of the divergence guard's forbidden set.
	// The pin holds only while the run lasts: the entropy probe still
	// classifies every buffer, and the first compressible one releases it.
	DefaultBypassRunPin = 2
)

// NextLevel is the pure compression-level update rule of paper Figure 2.
// n is the queue occupancy in packets, delta its variation since the last
// update, l the current level. The result is clamped to [min, max].
func NextLevel(n, delta int, l, min, max codec.Level) codec.Level {
	switch {
	case n == 0:
		return min
	case n < DefaultLowQueue:
		if delta <= 0 {
			l = l / 2
		}
	case n < DefaultMidQueue:
		if delta > 0 {
			l++
		} else if delta < 0 {
			l--
		}
	case n < DefaultHighQueue:
		if delta > 0 {
			l += 2
		} else if delta < 0 {
			l--
		}
	default:
		if delta > 0 {
			l += 2
		}
	}
	return l.Clamp(min, max)
}

// Cause identifies which control-loop stage produced a level transition —
// the vocabulary of the gateway's /debug/adapt trace.
type Cause string

// Transition causes, one per stage of LevelForNextBuffer in evaluation
// order. The cause reported is the last stage that moved the level.
const (
	// CauseQueue is the Figure 2 queue-occupancy rule.
	CauseQueue Cause = "queue"
	// CausePenalty is the forbidden-level filter (divergence penalty still
	// running from an earlier demotion).
	CausePenalty Cause = "penalty"
	// CauseDivergence is a fresh divergence-guard demotion: a smaller
	// level's bandwidth EWMA beat the candidate's.
	CauseDivergence Cause = "divergence"
	// CausePin is the incompressible-guard pin to the minimum level.
	CausePin Cause = "pin"
	// CauseBypass is the entropy-bypass run pin to the minimum level.
	CauseBypass Cause = "bypass"
)

// Transition is one level change: when, the move, and which control-loop
// stage decided it.
type Transition struct {
	At       time.Time
	From, To codec.Level
	Cause    Cause
}

// Config parameterizes a Controller. Zero fields other than the level
// bounds take the paper defaults. The bounds are taken literally, mirroring
// adoc_write_levels: Min == Max == 0 disables compression entirely, and
// Min > 0 forces compression on.
type Config struct {
	Min, Max codec.Level
	Clock    clock.Clock
	// DisableDivergenceGuard turns off the per-level bandwidth
	// comparison (for the ablation experiment).
	DisableDivergenceGuard bool
	// OnDivergence, if set, is invoked whenever the divergence guard
	// demotes a candidate level, also when the level ends where it was.
	OnDivergence func(from, to codec.Level)
	// OnTransition, if set, is invoked for every level change with the
	// stage that caused it — the feed for adaptive-trace ring buffers.
	// Fired after OnDivergence, without the controller lock.
	OnTransition func(Transition)
	// Metrics names the registry this controller's counters publish to;
	// nil keeps them detached (per-controller only, rendered nowhere).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// bwRecord is the visible-bandwidth EWMA for one level.
type bwRecord struct {
	seen bool
	bps  float64 // raw (uncompressed) bytes per second
}

// Controller decides the compression level for each AdOC buffer. All
// methods are safe for concurrent use: the compression thread asks for
// levels while the emission thread reports bandwidth.
type Controller struct {
	cfg Config

	mu           sync.Mutex
	level        codec.Level
	lastQueueLen int
	hasLast      bool
	bw           [int(codec.MaxLevel) + 1]bwRecord
	forbidden    [int(codec.MaxLevel) + 1]time.Time
	pinRemaining int // packets left at min level (incompressible guard)
	bypassRun    int // consecutive buffers the entropy probe shipped raw

	// Statistics are obs counters so a metrics-bound controller feeds the
	// registry's process totals with the same increments that serve its
	// own Stats() — parent-chaining instead of fold-on-close bookkeeping.
	// With no registry they are detached counters, observable only here.
	updates         *obs.Counter
	divergences     *obs.Counter
	pins            *obs.Counter
	entropyBypasses *obs.Counter
	levelCount      [int(codec.MaxLevel) + 1]*obs.Counter // buffers compressed per level
}

// Registry metric families the controller publishes.
const (
	MetricUpdates         = "adoc_adapt_updates_total"
	MetricDivergences     = "adoc_adapt_divergences_total"
	MetricPins            = "adoc_adapt_pins_total"
	MetricEntropyBypasses = "adoc_adapt_entropy_bypasses_total"
	MetricLevelBuffers    = "adoc_adapt_level_buffers_total"
)

// New returns a Controller starting at the minimum level (conservative: no
// compression until the queue says there is time for it).
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	if !cfg.Min.Valid() || !cfg.Max.Valid() || cfg.Min > cfg.Max {
		panic("adapt: invalid level bounds")
	}
	c := &Controller{cfg: cfg, level: cfg.Min}
	if reg := cfg.Metrics; reg != nil {
		c.updates = reg.Counter(MetricUpdates, "Control-loop updates (one per adaptation buffer).").Child()
		c.divergences = reg.Counter(MetricDivergences, "Divergence-guard demotions.").Child()
		c.pins = reg.Counter(MetricPins, "Incompressible-guard pins to the minimum level.").Child()
		c.entropyBypasses = reg.Counter(MetricEntropyBypasses, "Buffers the entropy probe shipped raw.").Child()
		for l := range c.levelCount {
			c.levelCount[l] = reg.Counter(MetricLevelBuffers,
				"Buffers compressed per level.", obs.Label{Name: "level", Value: strconv.Itoa(l)}).Child()
		}
	} else {
		c.updates = obs.NewCounter()
		c.divergences = obs.NewCounter()
		c.pins = obs.NewCounter()
		c.entropyBypasses = obs.NewCounter()
		for l := range c.levelCount {
			c.levelCount[l] = obs.NewCounter()
		}
	}
	return c
}

// Level returns the current level without updating it.
func (c *Controller) Level() codec.Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// LevelForNextBuffer runs one update of the control loop: Figure 2 on
// (n, δ), then the forbidden-level filter and the divergence guard, then
// the incompressible pin. queueLen is the current FIFO occupancy in
// packets. The returned level is what the next buffer must be compressed
// at.
func (c *Controller) LevelForNextBuffer(queueLen int) codec.Level {
	c.mu.Lock()
	old := c.level
	delta := 0
	if c.hasLast {
		delta = queueLen - c.lastQueueLen
	}
	c.lastQueueLen = queueLen
	c.hasLast = true
	c.updates.Inc()

	// cause tracks the last stage that moved the level; it only matters
	// when the final level differs from old, where it answers "which rule
	// put the level where it is".
	cause := CauseQueue
	next := NextLevel(queueLen, delta, c.level, c.cfg.Min, c.cfg.Max)
	now := c.cfg.Clock.Now()

	// Forbidden-level filter: fall below any level still under penalty.
	pre := next
	for next > c.cfg.Min && c.forbidden[next].After(now) {
		next--
	}
	if next != pre {
		cause = CausePenalty
	}

	// Divergence guard (paper §5 "Compression level divergence"): if some
	// smaller level has delivered strictly better visible bandwidth than
	// the candidate, fall back to the best smaller level and forbid the
	// candidate for DefaultForbidFor.
	var demotedFrom, demotedTo codec.Level
	demoted := false
	if !c.cfg.DisableDivergenceGuard && c.bw[next].seen {
		best := next
		for l := c.cfg.Min; l < next; l++ {
			if c.bw[l].seen && c.bw[l].bps > c.bw[best].bps {
				best = l
			}
		}
		if best != next {
			c.forbidden[next] = now.Add(DefaultForbidFor)
			demotedFrom, demotedTo = next, best
			demoted = true
			cause = CauseDivergence
			c.divergences.Inc()
			next = best
		}
	}

	// Incompressible pin overrides everything else, as does an entropy
	// bypass run: a level that keeps losing to the raw-copy fast path is
	// not worth asking for until the content run ends.
	if c.pinRemaining > 0 || c.bypassRun >= DefaultBypassRunPin {
		if next != c.cfg.Min {
			if c.pinRemaining > 0 {
				cause = CausePin
			} else {
				cause = CauseBypass
			}
		}
		next = c.cfg.Min
	}

	c.level = next
	c.levelCount[next].Inc()
	c.mu.Unlock()

	if demoted && c.cfg.OnDivergence != nil {
		c.cfg.OnDivergence(demotedFrom, demotedTo)
	}
	if next != old && c.cfg.OnTransition != nil {
		c.cfg.OnTransition(Transition{At: now, From: old, To: next, Cause: cause})
	}
	return next
}

// RecordDelivery feeds the divergence guard: rawBytes of user data whose
// wire transmission (at the given level) took d. Called by the emission
// thread each time a buffer group has fully left the socket.
func (c *Controller) RecordDelivery(level codec.Level, rawBytes int, d time.Duration) {
	if d <= 0 || rawBytes <= 0 || !level.Valid() {
		return
	}
	bps := float64(rawBytes) / d.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &c.bw[level]
	if !r.seen {
		r.seen = true
		r.bps = bps
		return
	}
	r.bps = DefaultEWMAAlpha*bps + (1-DefaultEWMAAlpha)*r.bps
}

// NotePacketRatio feeds the incompressible-data guard: a packet carrying
// rawLen bytes of user data was emitted as compLen wire bytes at the given
// level. When the gain falls below DefaultMinGainRatio the level is pinned
// to the minimum for the next DefaultPinPackets packets. It reports whether
// compression of the remaining buffer should be abandoned (paper: "we stop
// compressing the remaining of the buffer"). Raw (level 0) and empty
// packets never trigger it.
func (c *Controller) NotePacketRatio(level codec.Level, rawLen, compLen int) (abandonBuffer bool) {
	if level == codec.MinLevel || rawLen == 0 {
		return false
	}
	if codec.Ratio(rawLen, compLen) >= DefaultMinGainRatio {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pinRemaining = DefaultPinPackets
	c.pins.Inc()
	return true
}

// NoteEntropyBypass feeds the content-aware fast path back into the
// control loop: the entropy probe shipped a buffer raw instead of
// compressing it at the controller's level. Consecutive bypasses
// accumulate into a run; once the run reaches DefaultBypassRunPin,
// LevelForNextBuffer pins to the minimum — the per-content-run analogue
// of the divergence guard's forbidden set, except it is released by the
// content itself (the first compressible buffer, via
// NoteCompressibleContent) rather than by a timer. The return reports
// whether this bypass is the one that engaged the pin — the edge an
// observability layer wants to announce exactly once per run.
func (c *Controller) NoteEntropyBypass() (pinned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bypassRun++
	c.entropyBypasses.Inc()
	return c.bypassRun == DefaultBypassRunPin
}

// NoteCompressibleContent ends the entropy-bypass run: the probe saw a
// buffer worth compressing, so pinned levels become eligible again. The
// return reports whether an engaged pin was actually released by this
// call (the run had reached DefaultBypassRunPin).
func (c *Controller) NoteCompressibleContent() (released bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	released = c.bypassRun >= DefaultBypassRunPin
	c.bypassRun = 0
	return released
}

// BypassRunning reports whether an entropy-bypass run is open: a buffer
// of the current content run shipped raw, so a compressible verdict
// would end the run (and release the pin, once engaged). While no run is
// open, a probe verdict on a buffer already at the minimum level changes
// nothing.
func (c *Controller) BypassRunning() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bypassRun > 0
}

// NotePacketsSent advances the incompressible pin countdown: n packets have
// been produced since the last call.
func (c *Controller) NotePacketsSent(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pinRemaining -= n
	if c.pinRemaining < 0 {
		c.pinRemaining = 0
	}
}

// Bandwidth returns the recorded visible bandwidth (raw bytes/s) for a
// level and whether a sample exists.
func (c *Controller) Bandwidth(level codec.Level) (bps float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.bw[level]
	return r.bps, r.seen
}

// Stats is a snapshot of controller activity.
type Stats struct {
	Level       codec.Level
	Updates     int64
	Divergences int64
	Pins        int64
	// EntropyBypasses counts buffers the entropy probe shipped raw
	// instead of compressing at the controller's level.
	EntropyBypasses int64
	// LevelCount[l] is how many buffers were compressed at level l.
	LevelCount []int64
}

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	lc := make([]int64, len(c.levelCount))
	for l, ctr := range c.levelCount {
		lc[l] = ctr.Value()
	}
	return Stats{
		Level:           c.level,
		Updates:         c.updates.Value(),
		Divergences:     c.divergences.Value(),
		Pins:            c.pins.Value(),
		EntropyBypasses: c.entropyBypasses.Value(),
		LevelCount:      lc,
	}
}

// Snapshot is a point-in-time view of the controller's decision state —
// everything needed to answer "why is the connection at this level right
// now": the level itself, the active bounds, the incompressible-guard pin
// countdown, which levels the divergence guard currently forbids (and for
// how much longer), and the per-level visible-bandwidth EWMAs the guard
// compares. Unlike the additive Stats counters, a Snapshot is
// instantaneous and not meaningful to aggregate across connections.
type Snapshot struct {
	// Level is the current compression level.
	Level codec.Level
	// Min and Max are the active bounds.
	Min, Max codec.Level
	// PinRemaining is how many more packets the incompressible guard
	// holds the level at the minimum (0 = pin inactive).
	PinRemaining int
	// BypassRun is the current consecutive-entropy-bypass run length;
	// at DefaultBypassRunPin and above the level is pinned to the minimum
	// until compressible content returns.
	BypassRun int
	// ForbiddenFor[l] is the remaining divergence penalty for level l
	// (0 = not forbidden). Indexed by level, length MaxLevel+1.
	ForbiddenFor []time.Duration
	// BandwidthBps[l] is the visible-bandwidth EWMA for level l in raw
	// bytes per second, 0 when the level has never delivered. Indexed by
	// level, length MaxLevel+1.
	BandwidthBps []float64
}

// Forbidden returns the levels currently under a divergence penalty.
func (s Snapshot) Forbidden() []codec.Level {
	var out []codec.Level
	for l, d := range s.ForbiddenFor {
		if d > 0 {
			out = append(out, codec.Level(l))
		}
	}
	return out
}

// Snapshot captures the controller's current decision state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	s := Snapshot{
		Level:        c.level,
		Min:          c.cfg.Min,
		Max:          c.cfg.Max,
		PinRemaining: c.pinRemaining,
		BypassRun:    c.bypassRun,
		ForbiddenFor: make([]time.Duration, len(c.forbidden)),
		BandwidthBps: make([]float64, len(c.bw)),
	}
	for l, until := range c.forbidden {
		if until.After(now) {
			s.ForbiddenFor[l] = until.Sub(now)
		}
	}
	for l, r := range c.bw {
		if r.seen {
			s.BandwidthBps[l] = r.bps
		}
	}
	return s
}

// Bounds returns the controller's level bounds.
func (c *Controller) Bounds() (min, max codec.Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Min, c.cfg.Max
}

// SetBounds changes the level bounds, implementing the per-call min/max of
// adoc_write_levels and adoc_send_file_levels: min > 0 forces compression
// on, max == 0 disables it. Bandwidth history is kept — conditions on the
// link did not change just because the caller changed its policy.
func (c *Controller) SetBounds(min, max codec.Level) error {
	if !min.Valid() || !max.Valid() || min > max {
		return codec.ErrBadLevel
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Min = min
	c.cfg.Max = max
	c.level = c.level.Clamp(min, max)
	return nil
}
