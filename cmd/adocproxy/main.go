// Command adocproxy is a transparent compression gateway pair: it gives
// unmodified TCP applications the paper's adaptive online compression by
// tunneling their connections, as multiplexed streams, over one
// long-lived negotiated AdOC connection between two gateways.
//
// Topology:
//
//	app --plain tcp--> adocproxy ingress ==one AdOC conn==> adocproxy egress --plain tcp--> backend
//
// Usage:
//
//	adocproxy -mode ingress -listen :7000 -peer egress-host:7001
//	adocproxy -mode egress  -listen :7001 -backend backend-host:9000
//
// Flags -minlevel/-maxlevel bound the negotiated compression levels,
// -parallelism sets the in-flight window on the compression pool, and
// -stats makes the ingress print a periodic line explaining the tunnel's
// current compression level (the adapt controller snapshot: level,
// forbidden set, pin countdown, per-level bandwidth).
//
// Operations: -http starts the ops listener (/metrics, /healthz,
// /debug/adapt, /debug/trace, /debug/pprof), SIGTERM drains gracefully
// for up to -drain-timeout, and on the egress SIGHUP reloads
// -backends-file without disturbing established streams. -trace-sample N
// traces 1 in N tunnel batches through the pipeline stages (spans at
// /debug/trace, adoc_stage_seconds histograms at /metrics), and
// -log-level turns on structured logging of handshakes, adapt
// transitions, backend health flips, and drain progress. See the
// README's Operations section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adoc"
	"adoc/adocmux"
	"adoc/adocnet"
)

func main() {
	var (
		mode        = flag.String("mode", "", "gateway role: ingress or egress")
		listen      = flag.String("listen", "", "address to listen on")
		peer        = flag.String("peer", "", "ingress: egress gateway address to tunnel to")
		backend     = flag.String("backend", "", "egress: backend address to dial per stream")
		backends    = flag.String("backends", "", "egress: comma-separated backend list (least-loaded healthy pick)")
		backendFile = flag.String("backends-file", "", "egress: file of backend addresses, one per line; SIGHUP reloads it")
		minLevel    = flag.Int("minlevel", 0, "minimum compression level offered [0,10]")
		maxLevel    = flag.Int("maxlevel", 10, "maximum compression level offered [0,10]")
		parallelism = flag.Int("parallelism", 0, "in-flight compression window (0 = auto)")
		statsEvery  = flag.Duration("stats", 0, "ingress: print tunnel stats at this interval (0 = off)")
		httpAddr    = flag.String("http", "", "ops HTTP listener: /metrics, /healthz, /debug/adapt, /debug/trace, /debug/pprof (empty = off)")
		healthIvl   = flag.Duration("health-interval", 2*time.Second, "egress: backend health-check interval (0 = off)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM/SIGINT")
		balance     = flag.String("balance", adocmux.BalanceLeastLoaded, "egress: backend pick mode: least-loaded, or hash (consistent by client address)")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N tunnel batches through the pipeline stages (0 = off)")
		logLevel    = flag.String("log-level", "", "structured logging to stderr at this level: debug, info, warn, error (empty = off)")
	)
	flag.Parse()

	logger := buildLogger(*logLevel)
	opts := adocmux.TransportOptions()
	opts.MinLevel = adoc.Level(*minLevel)
	opts.MaxLevel = adoc.Level(*maxLevel)
	opts.Parallelism = *parallelism
	opts.Logger = logger
	var tracer *adoc.FlowTracer
	if *traceSample > 0 {
		tracer = adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: *traceSample})
		opts.FlowTracer = tracer
	}
	cfg := adocmux.Config{Logger: logger}

	ops := newOpsServer(nil) // the process-wide default registry
	ops.flow = tracer
	opts.Trace.OnTransition = ops.recordTransition
	if *httpAddr != "" {
		addr, err := ops.listen(*httpAddr)
		if err != nil {
			log.Fatalf("adocproxy: ops listener: %v", err)
		}
		log.Printf("adocproxy ops: http://%v/metrics", addr)
	}

	switch *mode {
	case "ingress":
		if *listen == "" || *peer == "" {
			fatalUsage("ingress mode needs -listen and -peer")
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("adocproxy: %v", err)
		}
		in := adocmux.NewIngress(*peer, opts, cfg)
		in.RegisterMetrics(nil) // adapt level/bandwidth gauges
		if *statsEvery > 0 {
			go reportStats(in, *statsEvery)
		}
		log.Printf("adocproxy ingress: %v -> %s", ln.Addr(), *peer)
		go func() {
			err := in.Serve(ln)
			if !ops.draining.Load() {
				log.Fatalf("adocproxy: %v", err)
			}
		}()
		runSignals(ops, *drainWait, in.Drain, nil)
	case "egress":
		list := backendList(*backend, *backends, *backendFile)
		if *listen == "" || len(list) == 0 {
			fatalUsage("egress mode needs -listen and -backend, -backends, or -backends-file")
		}
		ln, err := adocnet.Listen("tcp", *listen, opts)
		if err != nil {
			log.Fatalf("adocproxy: %v", err)
		}
		eg := adocmux.NewEgress(list[0], cfg)
		eg.SetBackends(list)
		eg.SetBalance(*balance)
		if *healthIvl > 0 {
			eg.StartHealthChecks(*healthIvl, *healthIvl)
		}
		log.Printf("adocproxy egress: %v -> %v", ln.Addr(), list)
		go func() {
			err := eg.Serve(ln)
			if !ops.draining.Load() {
				log.Fatalf("adocproxy: %v", err)
			}
		}()
		drain := func(ctx context.Context) error {
			ln.Close()
			return eg.Drain(ctx)
		}
		reload := func() {
			if *backendFile == "" {
				log.Print("adocproxy: SIGHUP ignored: no -backends-file to reload")
				return
			}
			list, err := readBackendsFile(*backendFile)
			if err != nil {
				log.Printf("adocproxy: reload: %v (keeping current backends)", err)
				return
			}
			eg.SetBackends(list)
			log.Printf("adocproxy: backends reloaded: %v", list)
		}
		runSignals(ops, *drainWait, drain, reload)
	default:
		fatalUsage("missing or unknown -mode (want ingress or egress)")
	}
}

// backendList resolves the egress backend set: -backends-file wins,
// then -backends, then the single -backend.
func backendList(backend, backends, file string) []string {
	if file != "" {
		list, err := readBackendsFile(file)
		if err != nil {
			log.Fatalf("adocproxy: %v", err)
		}
		return list
	}
	if backends != "" {
		var out []string
		for _, a := range strings.Split(backends, ",") {
			if a = strings.TrimSpace(a); a != "" {
				out = append(out, a)
			}
		}
		return out
	}
	if backend != "" {
		return []string{backend}
	}
	return nil
}

// runSignals blocks serving signals: SIGHUP runs reload (when non-nil),
// SIGTERM/SIGINT flip /healthz to draining, run drain bounded by
// timeout, and exit — 0 on a clean drain, 1 when the bound expired.
func runSignals(ops *opsServer, timeout time.Duration, drain func(context.Context) error, reload func()) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for sig := range sigc {
		if sig == syscall.SIGHUP {
			if reload != nil {
				reload()
			}
			continue
		}
		ops.draining.Store(true)
		log.Printf("adocproxy: %v: draining (up to %v)", sig, timeout)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := drain(ctx)
		cancel()
		if err != nil {
			log.Printf("adocproxy: drain: %v", err)
			os.Exit(1)
		}
		log.Print("adocproxy: drained cleanly")
		os.Exit(0)
	}
}

// buildLogger turns the -log-level flag into a text slog.Logger on
// stderr; empty means logging stays off (nil logger everywhere).
func buildLogger(level string) *slog.Logger {
	if level == "" {
		return nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		log.Fatalf("adocproxy: -log-level: %v", err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

func fatalUsage(msg string) {
	fmt.Fprintf(os.Stderr, "adocproxy: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

// reportStats prints a periodic line from the tunnel's engine counters
// and the adapt controller snapshot — enough to answer "is the tunnel
// compressing, at which level, and if not, why not".
func reportStats(in *adocmux.Ingress, every time.Duration) {
	for range time.Tick(every) {
		s, ok := in.Stats()
		if !ok {
			continue
		}
		pin, pout := in.TunnelBytes()
		log.Print(FormatStats(s, TunnelTraffic{In: pin, Out: pout}))
	}
}

// TunnelTraffic is the gateway-level piped-byte view FormatStats can
// append to the engine snapshot: raw bytes from the plain-TCP side into
// the tunnel (In) and back out of it (Out).
type TunnelTraffic struct {
	In, Out int64
}

// FormatStats renders one human-readable stats line. An optional
// TunnelTraffic appends the gateway's piped-byte counters.
func FormatStats(s adoc.Stats, tunnel ...TunnelTraffic) string {
	var b strings.Builder
	ratio := 1.0
	if s.WireSent > 0 {
		ratio = float64(s.RawSent) / float64(s.WireSent)
	}
	fmt.Fprintf(&b, "tunnel: raw=%dB wire=%dB ratio=%.2f level=%d bounds=[%d,%d]",
		s.RawSent, s.WireSent, ratio, s.Adapt.Level, s.Adapt.Min, s.Adapt.Max)
	if s.Adapt.PinRemaining > 0 {
		fmt.Fprintf(&b, " pinned(incompressible)=%dpkts", s.Adapt.PinRemaining)
	}
	if s.Adapt.BypassRun > 0 {
		fmt.Fprintf(&b, " bypass(entropy)=%dbufs", s.Adapt.BypassRun)
	}
	if forb := s.Adapt.Forbidden(); len(forb) > 0 {
		fmt.Fprintf(&b, " forbidden(diverged)=%v", forb)
	}
	if bw := s.Adapt.BandwidthBps[s.Adapt.Level]; bw > 0 {
		fmt.Fprintf(&b, " level-bw=%.1fMB/s", bw/1e6)
	}
	if len(tunnel) > 0 {
		fmt.Fprintf(&b, " piped(in)=%dB piped(out)=%dB", tunnel[0].In, tunnel[0].Out)
	}
	return b.String()
}
