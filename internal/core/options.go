// Package core implements the AdOC engine — the paper's primary
// contribution (§3-§5): the two-thread sender pipeline (compression thread
// feeding an emission thread through a FIFO packet queue), the symmetric
// receiver pipeline, the small-message fast path, the raw bypass for very
// fast links (decided from a per-connection link estimate), and full
// read/write-semantics support including partial reads.
//
// One Engine wraps one bidirectional connection (anything implementing
// io.ReadWriter, typically a net.Conn) and provides message-oriented sends
// and byte-stream reads on top of the wire protocol in internal/wire.
package core

import (
	"log/slog"
	"runtime"

	"adoc/internal/adapt"
	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/obs"
)

// Paper constants (§3.2, §5). PacketSize, BufferSize and SmallThreshold
// are the defaults of the Options fields of those names; the rest are
// fixed.
const (
	// DefaultPacketSize is the FIFO packet size: "the size of a packet is
	// 8KB".
	DefaultPacketSize = 8 * 1024
	// DefaultBufferSize is the compression/adaptation unit: "the size of
	// each buffer is chosen to be 200 KB".
	DefaultBufferSize = 200 * 1024
	// DefaultSmallThreshold is the no-compression cutoff: "when messages
	// are short (less than 512 KB), the data are sent uncompressed
	// directly without launching the threads".
	DefaultSmallThreshold = 512 * 1024
	// DefaultProbeSize is the bandwidth-measurement size: "we measure
	// the time to transmit a part of the data (256 KB) without
	// compression". Here it is the wire bytes one link-estimate sample
	// must cover, and the raw prefix a message of at least twice this
	// size sends while its connection has no estimate yet.
	DefaultProbeSize = 256 * 1024
	// DefaultFastCutoffBps is the fast-network threshold: "If this speed
	// is above 500 Mb/s ... we send the remaining data uncompressed",
	// compared with the connection's link estimate. Only a message whose
	// minimum level is 0 takes this raw bypass.
	DefaultFastCutoffBps = 500e6 / 8
	// DefaultQueueCapacity bounds the emission FIFO in packets; it is the
	// send side's only FIFO, and the receive side has none. The paper
	// leaves the queue unbounded; 256 packets (2 MB) is far above the
	// n>=30 "very large" band, so the control law never sees the bound.
	DefaultQueueCapacity = 256
	// DefaultFlushInterval is how much raw data is fed to a streaming
	// compressor between flushes — the granularity at which compressed
	// packets become available and the incompressible guard can abort.
	DefaultFlushInterval = 32 * 1024
	// MaxDefaultParallelism caps the default per-engine in-flight window.
	// Beyond ~4 concurrent buffers the emission socket, not the
	// compressor, is the bottleneck on typical links; callers that know
	// better can raise Parallelism explicitly.
	MaxDefaultParallelism = 4
)

// DefaultParallelism is min(GOMAXPROCS, MaxDefaultParallelism): one
// compression worker per core up to the default cap, never less than one.
func DefaultParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p > MaxDefaultParallelism {
		p = MaxDefaultParallelism
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Trace receives engine events; any field may be nil. Used by the examples
// to visualize adaptation and by tests to observe internals.
type Trace struct {
	// OnDivergence fires whenever the divergence guard demotes a
	// candidate level, also when the level ends where it was (no
	// OnTransition then).
	OnDivergence func(from, to codec.Level)
	// OnProbe fires after a message sent a probe prefix (only until the
	// connection has a link estimate) with the estimate in bytes per
	// second (0 while its first sample is still short of
	// DefaultProbeSize) and whether the rest of the message takes the raw
	// bypass.
	OnProbe func(bps float64, bypass bool)
	// OnGroupSent fires after a group the controller chose the level for
	// fully left the socket: compression level, raw payload size, bytes
	// on the wire, and, on the pipeline, the emission FIFO's occupancy in
	// packets as the Write carrying the group began, not counting the
	// buffer being written (0 off the pipeline). Raw-bypass groups do not
	// fire it.
	OnGroupSent func(level codec.Level, rawLen, wireLen, queueLen int)
	// OnTransition fires for every controller level change with the
	// control-loop stage that caused it — the feed for adaptive-trace
	// rings like adocproxy's /debug/adapt.
	OnTransition func(adapt.Transition)
}

// Options configures an Engine. A zero size selects the paper's default
// (8 KB packets, 200 KB buffers, 512 KB small-message threshold); the
// level bounds are taken as given, so the zero value runs with
// compression off. DefaultOptions has the full adaptive range.
type Options struct {
	// MinLevel and MaxLevel bound the adaptive level: MinLevel > 0 forces
	// compression, MaxLevel == 0 disables it.
	MinLevel, MaxLevel codec.Level
	// PacketSize is the FIFO packet payload size in bytes (default 8 KB).
	PacketSize int
	// BufferSize is the compression/adaptation unit in bytes (default
	// 200 KB).
	BufferSize int
	// SmallThreshold is the size under which messages with MinLevel 0
	// are sent raw with no pipeline (default 512 KB).
	SmallThreshold int
	// Parallelism is this engine's in-flight window: how many adaptation
	// buffers (or receive groups) it may have submitted to the shared
	// worker pool at once; 0 selects DefaultParallelism(). Every setting
	// runs the same pipeline — 1 is the paper's sequential one as the
	// window-of-1 case — with identical wire framing and ordering, and the
	// controller's occupancy signal counts each submitted buffer not yet
	// in the emission FIFO at its raw size in packets, so adaptation does
	// not depend on the window. Actual CPU concurrency is bounded by the
	// process-wide worker pool, sized to GOMAXPROCS and shared by all
	// engines.
	Parallelism int
	// DisableEntropyBypass turns off the per-buffer incompressibility
	// probe that ships high-entropy buffers raw without compressing them,
	// restoring the always-compress-then-notice behavior (ablation, and
	// the baseline the bypass is benchmarked against).
	DisableEntropyBypass bool
	// DisableProbe never takes the raw bypass and never sends a probe
	// prefix: every stream message adapts (ablation). The link estimate
	// is still measured and published.
	DisableProbe bool
	// Clock supplies time; nil means the system clock.
	Clock clock.Clock
	// Trace receives engine events.
	Trace Trace
	// Metrics is the registry this engine (and its controller, worker
	// pool, and buffer pool) publishes to; nil selects the process-wide
	// obs.Default().
	Metrics *obs.Registry
	// FlowTracer records sampled pipeline stage spans (enqueue, queue,
	// compress, wire, receive, decompress, deliver) for messages written
	// with a sampled trace context. Nil (or a tracer with sampling
	// disabled) costs one nil check per stage and allocates nothing.
	FlowTracer *obs.FlowTracer
	// Logger receives structured events at the engine's decision points
	// (adapt level transitions). Nil means silent. Layers above thread
	// the same logger to their own decision points (handshake outcomes,
	// backend health, drain).
	Logger *slog.Logger
}

// DefaultOptions returns the paper's configuration with the full adaptive
// range [0, 10].
func DefaultOptions() Options {
	return Options{
		MinLevel:       codec.MinLevel,
		MaxLevel:       codec.MaxLevel,
		PacketSize:     DefaultPacketSize,
		BufferSize:     DefaultBufferSize,
		SmallThreshold: DefaultSmallThreshold,
	}
}

// Effective returns o with zero fields filled from the defaults and the
// rest validated — the configuration an Engine built from o actually
// runs. Level bounds pass through as given (a zero MaxLevel really does
// mean compression off) and invalid bounds return the error New would.
// The transport layer computes its handshake offer from this same
// resolution, so there is no second copy of these rules to drift.
func (o Options) Effective() (Options, error) {
	if o.PacketSize <= 0 {
		o.PacketSize = DefaultPacketSize
	}
	if o.BufferSize <= 0 {
		o.BufferSize = DefaultBufferSize
	}
	if o.SmallThreshold <= 0 {
		o.SmallThreshold = DefaultSmallThreshold
	}
	if o.Parallelism <= 0 {
		o.Parallelism = DefaultParallelism()
	}
	if o.Clock == nil {
		o.Clock = clock.System
	}
	if !o.MinLevel.Valid() || !o.MaxLevel.Valid() || o.MinLevel > o.MaxLevel {
		return o, codec.ErrBadLevel
	}
	if o.BufferSize < o.PacketSize {
		o.BufferSize = o.PacketSize
	}
	return o, nil
}
