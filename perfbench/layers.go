package main

import (
	"fmt"
	"math"
	"slices"

	"adoc"
)

// Workload names.
const (
	wBulk  = "bulk-lan100"
	wRPC   = "rpc-loopback"
	wProxy = "proxy-mixed"
)

var allWorkloads = []string{wBulk, wRPC, wProxy}

// layerMetric is one per-layer metric of the traced run: where it
// applies, and which end-to-end metric it should move on which workload.
// A metric that does not apply to a workload is reported as 0.
type layerMetric struct {
	name, unit, better string
	applies            []string
	moves              string
	base               string // what a ratio divides by, in base.* metrics
}

// layerMetrics is the per-layer half of BENCHMARK.json, in order. The
// base.* entries are the denominators the ratios above them divide by.
var layerMetrics = []layerMetric{
	{"core.send_block_ms.p50", "ms", "lower", []string{wBulk}, "op_p50_ms on bulk-lan100", ""},
	{"core.drain_ms.p50", "ms", "lower", []string{wBulk}, "op_p50_ms on bulk-lan100", ""},
	{"core.small_share", "ratio", "lower", allWorkloads, "op_p50_ms on bulk-lan100", "base.engine_msgs_sent"},
	{"core.probe_bypass_share", "ratio", "lower", allWorkloads, "op_p50_ms on bulk-lan100", "base.engine_msgs_sent"},
	{"core.queue_high_water", "packets", "lower", allWorkloads, "op_p50_ms on bulk-lan100", ""},
	{"adapt.level_mean", "level", "higher", allWorkloads, "goodput_MBps up on bulk-lan100; flat on proxy-mixed", "base.adapt_buffers"},
	{"adapt.level0_share", "ratio", "lower", allWorkloads, "goodput_MBps up on bulk-lan100; flat on proxy-mixed", "base.adapt_buffers"},
	{"adapt.entropy_bypass_share", "ratio", "higher", allWorkloads, "goodput_MBps up on bulk-lan100; flat on proxy-mixed", "base.adapt_buffers"},
	{"adapt.divergences_per_MB", "1/MB", "lower", allWorkloads, "goodput_MBps up on bulk-lan100; flat on proxy-mixed", "base.engine_raw_MB"},
	{"codec.compress_MBps.l1", "MB/s", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"codec.compress_MBps.l6", "MB/s", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"codec.decompress_MBps.l6", "MB/s", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"codec.ratio.l1", "ratio", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"codec.ratio.l6", "ratio", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"codec.entropy_probe_MBps", "MB/s", "higher", allWorkloads, "goodput_MBps on bulk-lan100, op_p50_ms on proxy-mixed", "base.codec_sample_MB"},
	{"socket.bytes_per_payload", "ratio", "lower", allWorkloads, "goodput_MBps on bulk-lan100", "base.wire_MB / base.payload_MB"},
	{"socket.writes_per_op", "count", "lower", allWorkloads, "ops_per_s on rpc-loopback and proxy-mixed", "base.socket_writes / base.ops"},
	{"socket.bytes_per_write", "B", "higher", allWorkloads, "ops_per_s on rpc-loopback and proxy-mixed", "base.written_MB / base.socket_writes"},
	{"socket.write_block_share", "ratio", "lower", allWorkloads, "goodput_MBps on bulk-lan100", "base.elapsed_s"},
	{"netsim.link_util", "ratio", "higher", []string{wBulk}, "goodput_MBps on bulk-lan100", "base.written_MB / (base.link_MBps * base.elapsed_s)"},
	{"adocnet.handshake_ms.p50", "ms", "lower", []string{wBulk, wProxy}, "setup_s, and op_tail_ms on bulk-lan100", ""},
	{"adocmux.batches_per_op", "count", "lower", []string{wRPC, wProxy}, "ops_per_s on rpc-loopback", "base.engine_msgs / base.ops"},
	{"adocmux.gw_first_op_ms", "ms", "lower", []string{wProxy}, "setup_s on proxy-mixed", ""},
	{"adocrpc.handler_us.p50", "us", "lower", []string{wRPC}, "op_p50_ms on rpc-loopback", ""},
	{"adocrpc.overhead_us.p50", "us", "lower", []string{wRPC}, "op_p50_ms on rpc-loopback", ""},
	{"adocrpc.sessions", "count", "lower", []string{wRPC}, "op_p50_ms on rpc-loopback", ""},
	{"runtime.cpu_s_per_GB", "s/GB", "lower", allWorkloads, "op_p50_ms/op_tail_ms on rpc-loopback, goodput_MBps on proxy-mixed", "base.payload_MB"},
	{"runtime.allocs_per_op", "count", "lower", allWorkloads, "op_p50_ms/op_tail_ms on rpc-loopback, goodput_MBps on proxy-mixed", "base.ops"},
	{"runtime.alloc_bytes_per_payload_byte", "ratio", "lower", allWorkloads, "op_p50_ms/op_tail_ms on rpc-loopback, goodput_MBps on proxy-mixed", "base.payload_MB"},
	{"runtime.gc_per_s", "1/s", "lower", allWorkloads, "op_p50_ms/op_tail_ms on rpc-loopback, goodput_MBps on proxy-mixed", "base.elapsed_s"},
	{"runtime.goroutines_peak", "count", "lower", allWorkloads, "op_p50_ms/op_tail_ms on rpc-loopback, goodput_MBps on proxy-mixed", ""},
	{"stack.vs_raw", "ratio", "higher", []string{wBulk, wProxy}, "goodput_MBps; the paper's inequalities: above 1 on bulk-lan100, not far below 1 on proxy-mixed", "base.untraced_goodput_MBps / base.raw_goodput_MBps"},
	{"trace.overhead", "ratio", "lower", allWorkloads, "nothing: the cost of tracing itself", "1 - base.traced_goodput_MBps / base.untraced_goodput_MBps"},
	{"base.ops", "count", "higher", allWorkloads, "base of the per-op ratios", ""},
	{"base.payload_MB", "MB", "higher", allWorkloads, "base of the per-payload ratios", ""},
	{"base.elapsed_s", "s", "higher", allWorkloads, "base of the per-second ratios and shares of time", ""},
	{"base.wire_MB", "MB", "higher", allWorkloads, "numerator of socket.bytes_per_payload", ""},
	{"base.written_MB", "MB", "higher", allWorkloads, "numerator of socket.bytes_per_write and netsim.link_util", ""},
	{"base.socket_writes", "count", "higher", allWorkloads, "base of socket.bytes_per_write", ""},
	{"base.engine_msgs", "count", "higher", allWorkloads, "engine messages both ways, base of adocmux.batches_per_op", ""},
	{"base.engine_msgs_sent", "count", "higher", allWorkloads, "engine messages sent, base of the core.* shares", ""},
	{"base.adapt_buffers", "count", "higher", allWorkloads, "base of the adapt.* shares", ""},
	{"base.engine_raw_MB", "MB", "higher", allWorkloads, "base of adapt.divergences_per_MB", ""},
	{"base.codec_sample_MB", "MB", "higher", allWorkloads, "bytes each codec.* figure was timed on", ""},
	{"base.link_MBps", "MB/s", "higher", []string{wBulk}, "base of netsim.link_util", ""},
	{"base.raw_goodput_MBps", "MB/s", "higher", []string{wBulk, wProxy}, "base of stack.vs_raw", ""},
	{"base.untraced_goodput_MBps", "MB/s", "higher", allWorkloads, "base of trace.overhead and stack.vs_raw", ""},
	{"base.traced_goodput_MBps", "MB/s", "higher", allWorkloads, "numerator of trace.overhead", ""},
	{"base.spans", "count", "higher", allWorkloads, "spans recorded by the traced phases", ""},
}

func (m layerMetric) appliesTo(w string) bool { return slices.Contains(m.applies, w) }

// checkLayers fails loudly when a metric that applies to workload w is
// missing or not a number, and zeroes the ones that do not apply.
func checkLayers(w string, got map[string]float64) error {
	var missing []string
	for _, m := range layerMetrics {
		v, ok := got[m.name]
		if !m.appliesTo(w) {
			got[m.name] = 0
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
		}
	}
	for name := range got {
		if !slices.ContainsFunc(layerMetrics, func(m layerMetric) bool { return m.name == name }) {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: per-layer metrics missing: %v", w, missing)
	}
	return nil
}

// layerInput is what the traced run measured, for layerValues.
type layerInput struct {
	all                   window // untraced and traced phases together
	goodU, goodT, rawGood float64
	sock                  sockSnap
	eng                   adoc.Stats
	sessions              int
	rt                    rtSnap
	goroutines            int
	tr                    *tracer
	codec                 codecResult
}

// layerValues computes every per-layer metric from the traced run. A
// metric with nothing to measure is NaN, which checkLayers rejects where
// the metric applies.
func layerValues(w workload, li layerInput) map[string]float64 {
	ops := float64(li.all.done)
	payload := float64(li.all.bytes)
	secs := li.all.elapsed.Seconds()
	p50 := func(name string) float64 { return quantile(li.tr.durations(name), 0.5) }
	e := li.eng
	var bufs, levels float64
	for l, n := range e.Controller.LevelCount {
		bufs += float64(n)
		levels += float64(l) * float64(n)
	}
	var level0 float64
	if len(e.Controller.LevelCount) > 0 {
		level0 = float64(e.Controller.LevelCount[0])
	}
	wire := float64(li.sock.wbytes + li.sock.rbytes)

	// The RPC layer's own cost: call time minus handler time, per op.
	calls, handlers := map[int64]int64{}, map[int64]int64{}
	for _, s := range li.tr.recorded() {
		switch s.Name {
		case "adocrpc.Pool.Call":
			calls[s.Op] = s.End - s.Start
		case "handler":
			handlers[s.Op] = s.End - s.Start
		}
	}
	var overhead []float64
	for op, c := range calls {
		if h, ok := handlers[op]; ok {
			overhead = append(overhead, float64(c-h)/1e3)
		}
	}

	return map[string]float64{
		"core.send_block_ms.p50":               p50("adoc.Conn.WriteMessage"),
		"core.drain_ms.p50":                    p50("drain"),
		"core.small_share":                     ratio(float64(e.SmallSent), float64(e.MsgsSent)),
		"core.probe_bypass_share":              ratio(float64(e.ProbeBypasses), float64(e.MsgsSent)),
		"core.queue_high_water":                float64(e.QueueHighWater),
		"adapt.level_mean":                     ratio(levels, bufs),
		"adapt.level0_share":                   ratio(level0, bufs),
		"adapt.entropy_bypass_share":           ratio(float64(e.Controller.EntropyBypasses), bufs),
		"adapt.divergences_per_MB":             ratio(float64(e.Controller.Divergences), float64(e.RawSent)/1e6),
		"codec.compress_MBps.l1":               li.codec.c1,
		"codec.compress_MBps.l6":               li.codec.c6,
		"codec.decompress_MBps.l6":             li.codec.d6,
		"codec.ratio.l1":                       li.codec.r1,
		"codec.ratio.l6":                       li.codec.r6,
		"codec.entropy_probe_MBps":             li.codec.probe,
		"socket.bytes_per_payload":             ratio(wire, payload),
		"socket.writes_per_op":                 ratio(float64(li.sock.writes), ops),
		"socket.bytes_per_write":               ratio(float64(li.sock.wbytes), float64(li.sock.writes)),
		"socket.write_block_share":             ratio(float64(li.sock.writeNanos)/1e9, secs),
		"netsim.link_util":                     ratio(float64(li.sock.wbytes), w.link*secs),
		"adocnet.handshake_ms.p50":             p50("adocnet.Handshake"),
		"adocmux.batches_per_op":               ratio(float64(e.MsgsSent+e.MsgsReceived), ops),
		"adocmux.gw_first_op_ms":               p50("first_op"),
		"adocrpc.handler_us.p50":               p50("handler") * 1e3,
		"adocrpc.overhead_us.p50":              quantile(sortedCopy(overhead), 0.5),
		"adocrpc.sessions":                     float64(li.sessions),
		"runtime.cpu_s_per_GB":                 ratio(li.rt.cpu.Seconds(), payload/1e9),
		"runtime.allocs_per_op":                ratio(float64(li.rt.mallocs), ops),
		"runtime.alloc_bytes_per_payload_byte": ratio(float64(li.rt.alloc), payload),
		"runtime.gc_per_s":                     ratio(float64(li.rt.gcs), secs),
		"runtime.goroutines_peak":              float64(li.goroutines),
		"stack.vs_raw":                         li.goodU / li.rawGood,
		"trace.overhead":                       1 - li.goodT/li.goodU,
		"base.ops":                             ops,
		"base.payload_MB":                      payload / 1e6,
		"base.elapsed_s":                       secs,
		"base.wire_MB":                         wire / 1e6,
		"base.written_MB":                      float64(li.sock.wbytes) / 1e6,
		"base.socket_writes":                   float64(li.sock.writes),
		"base.engine_msgs":                     float64(e.MsgsSent + e.MsgsReceived),
		"base.engine_msgs_sent":                float64(e.MsgsSent),
		"base.adapt_buffers":                   bufs,
		"base.engine_raw_MB":                   float64(e.RawSent) / 1e6,
		"base.codec_sample_MB":                 li.codec.sampleMB,
		"base.link_MBps":                       w.link / 1e6,
		"base.raw_goodput_MBps":                li.rawGood,
		"base.untraced_goodput_MBps":           li.goodU,
		"base.traced_goodput_MBps":             li.goodT,
		"base.spans":                           float64(len(li.tr.recorded())),
	}
}

// e2eMetric is one end-to-end metric of the untraced runs.
type e2eMetric struct{ name, unit, better string }

// e2eMetrics is the end-to-end half of BENCHMARK.json, in order.
var e2eMetrics = []e2eMetric{
	{"goodput_MBps", "MB/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"verified_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"mem_peak_MB", "MB", "lower"},
}

// unitOf returns the unit of a declared metric; an undeclared name is a
// bug in this package.
func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("undeclared metric " + name)
}
