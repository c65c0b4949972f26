// Package adoc is a Go implementation of the AdOC library — Adaptive
// Online Compression for data transfer (Emmanuel Jeannot, "Improving
// Middleware Performance with AdOC", INRIA RR-5500 / IPPS 2005).
//
// AdOC sends data over a connection while compressing it on the fly,
// constantly adapting the compression level (0 = none, 1 = LZF, 2..10 =
// DEFLATE 1..9) to the current speed of the network, the CPUs on both
// ends, and the data itself. Compression overlaps communication through a
// FIFO packet queue between a compression goroutine and an emission
// goroutine; the queue's occupancy drives the level up or down.
//
// Two API styles are provided:
//
//   - The Conn type wraps any io.ReadWriter (typically a net.Conn) and
//     offers idiomatic Read/Write plus message/file transfer methods.
//
//   - Package-level functions (Write, WriteLevels, Read, SendFile,
//     SendFileLevels, ReceiveFile, Close) mirror the seven functions of
//     the C library's API, keyed by the connection value the way the C
//     version keys its internal state by file descriptor.
//
// Both preserve the read/write system-call semantics the paper insists
// on: a reader may consume a 100 MB send as one 60 MB and one 40 MB read,
// message boundaries are invisible, and Close releases the partial-read
// buffers.
package adoc

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sync"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/core"
	"adoc/internal/obs"
)

// Level is an AdOC compression level: 0 none, 1 LZF, 2..10 DEFLATE 1..9.
type Level = codec.Level

// Level bounds, mirroring ADOC_MIN_LEVEL and ADOC_MAX_LEVEL.
const (
	MinLevel = codec.MinLevel
	MaxLevel = codec.MaxLevel
)

// Errors re-exported from the engine.
var (
	// ErrClosed is returned by operations on a closed connection.
	ErrClosed = core.ErrClosed
	// ErrMidMessage is returned by ReceiveFile when the previous message
	// was only partially consumed by Read.
	ErrMidMessage = core.ErrMidMessage
	// ErrAbandoned is returned by every receive after ReceiveMessage or
	// ReceiveFile failed mid-message, until Close; it wraps the cause.
	ErrAbandoned = core.ErrAbandoned
)

// Stats is a snapshot of per-connection activity (bytes, messages,
// compression ratio inputs, controller behaviour).
type Stats = core.Stats

// Trace carries optional observability callbacks (level changes, probe
// results, per-group sends).
type Trace = core.Trace

// MetricsRegistry holds typed atomic metric families (counters, gauges,
// histograms) and renders them in the Prometheus text exposition format.
// Every layer of a connection stack — engine, controller, worker pool,
// buffer pool, and the transport packages above — publishes through the
// registry its Options.Metrics names; nil selects DefaultMetrics().
type MetricsRegistry = obs.Registry

// MetricLabel is one name="value" pair on a metric series.
type MetricLabel = obs.Label

// NewMetricsRegistry returns an empty registry, for stacks that want
// metrics isolated from the process-wide default.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-wide registry used when no Options
// named another.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// MetricsHandler returns an http.Handler serving reg in the Prometheus
// text exposition format (version 0.0.4); nil serves DefaultMetrics().
// Mount it on /metrics and point a Prometheus scrape job at it.
func MetricsHandler(reg *MetricsRegistry) http.Handler {
	if reg == nil {
		reg = obs.Default()
	}
	return obs.Handler(reg)
}

// ConnHandle is a live connection's entry in its registry's inspection
// table. Layers above the engine enrich it (kind tag, addresses,
// negotiated config, stream count); /debug/conns snapshots it. All
// methods are safe on a nil handle.
type ConnHandle = obs.ConnHandle

// ConnState is one connection's introspection snapshot as served by
// /debug/conns.
type ConnState = obs.ConnState

// ConnConfig is the negotiated per-connection configuration inside a
// ConnState.
type ConnConfig = obs.ConnConfig

// ObsEvent is one typed structured event on a registry's event bus
// (handshake, adapt transition, entropy-bypass pin, backend health
// flip, stream lifecycle, drain progress).
type ObsEvent = obs.Event

// EventBus fans structured events out to bounded subscribers; obtain a
// registry's bus with Events().
type EventBus = obs.EventBus

// EventSub is one bounded subscription on an EventBus.
type EventSub = obs.EventSub

// Event types published on a registry's bus, re-exported for
// subscribers and the layers that publish them.
const (
	EventHandshake = obs.EventHandshake
	EventAdapt     = obs.EventAdapt
	EventBypass    = obs.EventBypass
	EventBackend   = obs.EventBackend
	EventStream    = obs.EventStream
	EventDrain     = obs.EventDrain
)

// Events returns reg's event bus (DefaultMetrics() when nil), creating
// it on first use.
func Events(reg *MetricsRegistry) *EventBus {
	if reg == nil {
		reg = obs.Default()
	}
	return reg.Events()
}

// Conns returns reg's connection-inspection table (DefaultMetrics()
// when nil), creating it on first use.
func Conns(reg *MetricsRegistry) *obs.ConnTable {
	if reg == nil {
		reg = obs.Default()
	}
	return reg.Conns()
}

// ConnsHandler returns an http.Handler serving reg's connection table as
// JSON — the full list, or one connection with ?id=N; nil serves
// DefaultMetrics(). Mount it on /debug/conns.
func ConnsHandler(reg *MetricsRegistry) http.Handler { return obs.ConnsHandler(reg) }

// EventsHandler returns an http.Handler streaming reg's event bus as
// NDJSON with ?type=/?conn= filters (?max=N to stop after N events,
// ?replay=0 to skip the retained recent past); nil serves
// DefaultMetrics(). Mount it on /debug/events.
func EventsHandler(reg *MetricsRegistry) http.Handler { return obs.EventsHandler(reg) }

// RegisterRuntimeMetrics registers the adoc_go_* runtime self-telemetry
// families (goroutines, heap bytes, GC pause and scheduler-latency
// quantiles) plus adoc_build_info on reg (DefaultMetrics() when nil).
// Idempotent.
func RegisterRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterRuntimeMetrics(reg) }

// FlowTracer is a sampled, ring-buffered recorder of pipeline stage spans:
// each traced message is decomposed into enqueue, queue, compress, wire,
// receive, decompress, and deliver stages, observed into the
// adoc_stage_seconds histogram and retained in a fixed ring for /debug/trace
// style dumps. Share one tracer across both sides of a hop (or one per
// process) and pass it via Options.FlowTracer.
type FlowTracer = obs.FlowTracer

// FlowTracerConfig sizes a FlowTracer.
type FlowTracerConfig = obs.FlowTracerConfig

// TraceContext identifies one traced message: an 8-byte ID plus the
// sampled bit that travels across the compressed hop when both peers
// negotiated the trace capability.
type TraceContext = obs.TraceContext

// TraceSpan is one recorded stage timing.
type TraceSpan = obs.Span

// NewFlowTracer builds a tracer that samples one message in every
// cfg.SampleEvery (0 disables sampling entirely — the zero-cost mode).
// Histograms register on cfg.Metrics (nil selects DefaultMetrics()) at
// construction, so adoc_stage_seconds renders even before the first
// sampled message.
func NewFlowTracer(cfg FlowTracerConfig) *FlowTracer { return obs.NewFlowTracer(cfg) }

// Pipeline stage names, re-exported for span consumers and the layers
// (adocmux, adocrpc) that record their own spans.
const (
	StageEnqueue    = obs.StageEnqueue
	StageQueue      = obs.StageQueue
	StageCompress   = obs.StageCompress
	StageWire       = obs.StageWire
	StageReceive    = obs.StageReceive
	StageDecompress = obs.StageDecompress
	StageDeliver    = obs.StageDeliver
	StageCall       = obs.StageCall
)

// AdaptTransition is one controller level change with its cause, delivered
// through Trace.OnTransition.
type AdaptTransition = adapt.Transition

// AdaptCause identifies the control-loop stage behind a transition.
type AdaptCause = adapt.Cause

// Transition causes, re-exported from the controller.
const (
	AdaptCauseQueue      = adapt.CauseQueue
	AdaptCausePenalty    = adapt.CausePenalty
	AdaptCauseDivergence = adapt.CauseDivergence
	AdaptCausePin        = adapt.CausePin
	AdaptCauseBypass     = adapt.CauseBypass
)

// WorkerPool executes compression/decompression jobs for any number of
// connections. One pool sized to GOMAXPROCS serves the whole process;
// each connection's Parallelism option is its in-flight window on the
// pool, not a private worker count.
type WorkerPool = core.WorkerPool

// DefaultWorkerPool returns the process-wide pool every connection
// submits to. Exposed so operational surfaces (health checks) can watch
// its queue depth.
func DefaultWorkerPool() *WorkerPool { return core.DefaultWorkerPool() }

// Options tunes a connection; it is the engine's own options type. A zero
// PacketSize, BufferSize, SmallThreshold or Parallelism selects the
// paper's default (8 KB packets, 200 KB buffers, 512 KB small-message
// threshold, one in-flight buffer per core up to 4). The level bounds are
// taken as given: MinLevel > 0 forces compression on and MaxLevel == 0
// disables it, so start from DefaultOptions for the adaptive range
// [0, 10]. The remaining engine parameters are the paper's constants: a
// 256 KB link-speed probe and a 500 Mbit/s fast-link cutoff.
//
// Options.Effective returns the configuration a Conn built from the
// options actually runs, or the error NewConn would return.
type Options = core.Options

// DefaultOptions returns the paper's configuration with full adaptive
// range [0, 10].
func DefaultOptions() Options { return core.DefaultOptions() }

// registry maps connection values to their AdOC state, mirroring the C
// library's static descriptor table ("a static variable is used to store
// and retrieve internal buffers ... always accessed between locks",
// paper §4.2). Keys must be comparable; net.Conn implementations are.
var (
	registryMu sync.Mutex
	registry   = map[io.ReadWriter]*Conn{}
)

// checkRegistryKey rejects values the registry map cannot hold: indexing a
// map with an interface whose dynamic type is non-comparable (a struct
// with a slice field, a func, ...) panics at runtime, which would crash
// the caller deep inside Write/Read. Such types get a descriptive error
// instead; wrapping the value in a pointer (or using NewConn directly)
// sidesteps the restriction.
func checkRegistryKey(d io.ReadWriter) error {
	if d == nil {
		return fmt.Errorf("adoc: nil connection")
	}
	if t := reflect.TypeOf(d); !t.Comparable() {
		return fmt.Errorf("adoc: connection type %v is not comparable and cannot key the connection registry; pass a pointer (e.g. *%v) or use NewConn/Configure's Conn directly", t, t)
	}
	return nil
}

// connFor returns (creating if needed) the Conn bound to d.
func connFor(d io.ReadWriter) (*Conn, error) {
	if err := checkRegistryKey(d); err != nil {
		return nil, err
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if c, ok := registry[d]; ok {
		return c, nil
	}
	c, err := NewConn(d, DefaultOptions())
	if err != nil {
		return nil, err
	}
	registry[d] = c
	return c, nil
}

// Configure binds d to a Conn with explicit options. It must be called
// before the first Write/Read on d, and is optional: the defaults apply
// otherwise.
func Configure(d io.ReadWriter, opts Options) (*Conn, error) {
	if err := checkRegistryKey(d); err != nil {
		return nil, err
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if c, ok := registry[d]; ok {
		return c, nil
	}
	c, err := NewConn(d, opts)
	if err != nil {
		return nil, err
	}
	registry[d] = c
	return c, nil
}

// Write sends buf over d with adaptive compression, like the write system
// call plus compression. It returns len(buf) on success and the number of
// bytes that actually hit the wire through sent — the pair adoc_write
// returns and outputs via slen. sent may exceed len(buf) slightly for
// incompressible data (framing) and be far smaller for compressible data.
func Write(d io.ReadWriter, buf []byte) (n int, sent int64, err error) {
	c, err := connFor(d)
	if err != nil {
		return 0, 0, err
	}
	sent, err = c.WriteMessage(buf)
	if err != nil {
		return 0, sent, err
	}
	return len(buf), sent, nil
}

// WriteLevels is Write with explicit level bounds (adoc_write_levels):
// min > 0 forces compression, max == 0 disables it.
func WriteLevels(d io.ReadWriter, buf []byte, min, max Level) (n int, sent int64, err error) {
	c, err := connFor(d)
	if err != nil {
		return 0, 0, err
	}
	sent, err = c.WriteMessageLevels(buf, min, max)
	if err != nil {
		return 0, sent, err
	}
	return len(buf), sent, nil
}

// Read reads decompressed data from d into buf, like the read system
// call: it blocks until at least one byte is available and returns the
// number of bytes stored. Partial reads across message boundaries are
// supported; leftovers are buffered until the next Read or Close.
func Read(d io.ReadWriter, buf []byte) (int, error) {
	c, err := connFor(d)
	if err != nil {
		return 0, err
	}
	return c.Read(buf)
}

// SendFile transmits f (from its current offset to EOF) over d with
// adaptive compression — adoc_send_file. It returns the file byte count
// and the wire byte count; size/sent is the achieved compression ratio.
func SendFile(d io.ReadWriter, f *os.File) (size int64, sent int64, err error) {
	return SendFileLevels(d, f, MinLevel, MaxLevel)
}

// SendFileLevels is SendFile with explicit level bounds.
func SendFileLevels(d io.ReadWriter, f *os.File, min, max Level) (size int64, sent int64, err error) {
	c, err := connFor(d)
	if err != nil {
		return 0, 0, err
	}
	return c.SendStreamLevels(f, fileRemaining(f), min, max)
}

// fileRemaining returns the bytes between the file offset and EOF, or -1
// when that cannot be determined (pipes, devices).
func fileRemaining(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return -1
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	if rem := fi.Size() - off; rem >= 0 {
		return rem
	}
	return 0
}

// ReceiveFile reads one complete AdOC message from d, decompresses it and
// writes the content to f — adoc_receive_file. It returns the number of
// raw bytes stored.
func ReceiveFile(d io.ReadWriter, f *os.File) (int64, error) {
	c, err := connFor(d)
	if err != nil {
		return 0, err
	}
	return c.ReceiveMessage(f)
}

// Close releases the AdOC state bound to d (partial-read buffers, pending
// pipelines) and closes d itself if it implements io.Closer —
// adoc_close.
func Close(d io.ReadWriter) error {
	var c *Conn
	ok := false
	if checkRegistryKey(d) == nil {
		// A non-comparable d can never have been registered (connFor and
		// Configure refuse it), so skipping the lookup loses nothing — and
		// avoids panicking on the map index.
		registryMu.Lock()
		c, ok = registry[d]
		delete(registry, d)
		registryMu.Unlock()
	}
	if !ok {
		// Never used through this package: just close the descriptor.
		if cl, okc := d.(io.Closer); okc {
			return cl.Close()
		}
		return nil
	}
	return c.Close()
}
