package adocrpc

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"adoc"
	"adoc/adocmux"
	"adoc/adocnet"
)

// stagesByTrace folds a tracer's retained spans into per-trace stage
// sets.
func stagesByTrace(tr *adoc.FlowTracer) map[uint64]map[string]bool {
	out := map[uint64]map[string]bool{}
	for _, s := range tr.Spans(0, 0) {
		m := out[s.TraceID]
		if m == nil {
			m = map[string]bool{}
			out[s.TraceID] = m
		}
		m[s.Stage] = true
	}
	return out
}

// TestTraceTimelineAcrossGateways is the end-to-end tracing acceptance
// scenario: an adocrpc call crosses the full gateway topology —
//
//	pool --tcp--> ingress ==AdOC tunnel (1-in-64 sampled)==> egress --tcp--> adocrpc server
//
// and afterwards one sampled trace ID carries the whole timeline:
// enqueue/queue/compress/wire spans recorded by the ingress-side tracer
// AND receive/decompress/deliver spans recorded by the egress-side
// tracer under the SAME ID, proving the trace context (ID + sampled
// bit) survived the compressed hop. The call itself shows up as a
// call-level span in the client's tracer.
//
// Determinism: SampleNext samples the first batch ever offered, the
// ingress tunnel negotiates MinLevel 1, which keeps every batch — the
// stream-open included — on the adaptive pipeline, whose every stage
// records a span, so that first sampled batch produces the full
// sender-side stage set.
func TestTraceTimelineAcrossGateways(t *testing.T) {
	// The backend: a real adocrpc server on plain TCP.
	backendLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backendLn.Close()
	srv := NewServer(ServerConfig{})
	srv.Register("echo", func(_ context.Context, args [][]byte) ([][]byte, error) {
		return args, nil
	})
	go srv.Serve(backendLn)
	defer srv.Close()

	// The compressed hop, traced on both sides with 1-in-64 sampling.
	ingT := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 64, Metrics: adoc.NewMetricsRegistry()})
	egT := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 64, Metrics: adoc.NewMetricsRegistry()})

	egOpts := adocmux.TransportOptions()
	egOpts.FlowTracer = egT
	egLn, err := adocnet.Listen("tcp", "127.0.0.1:0", egOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer egLn.Close()
	eg := adocmux.NewEgress(backendLn.Addr().String(), adocmux.Config{Metrics: adoc.NewMetricsRegistry()})
	go eg.Serve(egLn)
	defer eg.Close()

	inOpts := adocmux.TransportOptions()
	inOpts.FlowTracer = ingT
	inOpts.MinLevel = 1
	// Parallelism defaults to min(GOMAXPROCS, 4); pin it so the test runs
	// the same window on every machine.
	inOpts.Parallelism = 4
	inLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inLn.Close()
	in := adocmux.NewIngress(egLn.Addr().String(), inOpts, adocmux.Config{Metrics: adoc.NewMetricsRegistry()})
	go in.Serve(inLn)
	defer in.Close()

	// The client pool dials THROUGH the tunnel; its own tracer records
	// call-level spans on the inner connection.
	callT := adoc.NewFlowTracer(adoc.FlowTracerConfig{SampleEvery: 1, Metrics: adoc.NewMetricsRegistry()})
	cliOpts := adocmux.TransportOptions()
	cliOpts.FlowTracer = callT
	pool, err := DialPool("tcp", inLn.Addr().String(), PoolConfig{
		Options: &cliOpts,
		Mux:     adocmux.Config{Metrics: adoc.NewMetricsRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	arg := compressible(32*1024, 99)
	res, err := pool.Call(ctx, "echo", [][]byte{arg})
	if err != nil {
		t.Fatalf("call through gateways: %v", err)
	}
	if len(res) != 1 || !bytes.Equal(res[0], arg) {
		t.Fatal("echo corrupted through the tunnel")
	}

	// Call-level span on the client side.
	var haveCall bool
	for _, s := range callT.Spans(0, 0) {
		if s.Stage == adoc.StageCall {
			haveCall = true
			break
		}
	}
	if !haveCall {
		t.Errorf("no %s span in the client tracer; spans: %+v", adoc.StageCall, callT.Spans(0, 0))
	}

	// One trace ID must carry the sender-side pipeline timeline at the
	// ingress AND the receiver-side timeline at the egress.
	sendStages := []string{adoc.StageEnqueue, adoc.StageQueue, adoc.StageCompress, adoc.StageWire}
	recvStages := []string{adoc.StageReceive, adoc.StageDecompress, adoc.StageDeliver}
	ingress := stagesByTrace(ingT)
	egress := stagesByTrace(egT)
	var matched bool
	for id, stages := range ingress {
		full := true
		for _, st := range sendStages {
			full = full && stages[st]
		}
		if !full {
			continue
		}
		far := egress[id]
		for _, st := range recvStages {
			full = full && far[st]
		}
		if full {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("no trace ID carries the full cross-hop timeline\ningress: %+v\negress: %+v",
			ingress, egress)
	}
}
