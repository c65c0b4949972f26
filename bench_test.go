// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (run `go test -bench=. -benchmem`). These are bounded-size
// versions suitable for `go test`; the full sweeps (up to 32 MB per point,
// all sizes, all networks) are produced by `go run ./cmd/adocbench all`
// and recorded in EXPERIMENTS.md.
package adoc_test

import (
	"fmt"
	"testing"
	"time"

	"adoc"
	"adoc/internal/bench"
	"adoc/internal/codec"
	"adoc/internal/datagen"
	"adoc/internal/des"
	"adoc/internal/gridrpc"
	"adoc/internal/netsim"
)

// BenchmarkTable1 measures the codec levels on the two Table 1 bench
// files: per-level compression throughput on this machine.
func BenchmarkTable1(b *testing.B) {
	files := map[string][]byte{
		"oilpann.hb": datagen.HarwellBoeing(30000, 3000, 12, 1),
		"bin.tar":    datagen.TarLike(4<<20, 1),
	}
	for name, data := range files {
		for _, l := range []codec.Level{codec.LZF, 2, 7, 10} {
			b.Run(fmt.Sprintf("%s/%s", name, l), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if _, _, err := codec.Compress(l, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// latencyRound measures one zero-byte AdOC ping-pong over a profile.
func latencyRound(b *testing.B, prof netsim.Profile, min, max adoc.Level) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		c1, c2 := netsim.Pair(prof)
		done := make(chan error, 1)
		go func() {
			srv, err := adoc.NewConn(c2, adoc.DefaultOptions())
			if err != nil {
				done <- err
				return
			}
			if _, err := srv.ReceiveMessage(discardWriter{}); err != nil {
				done <- err
				return
			}
			_, err = srv.WriteMessageLevels(nil, min, max)
			done <- err
		}()
		cli, err := adoc.NewConn(c1, adoc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cli.WriteMessageLevels(nil, min, max); err != nil {
			b.Fatal(err)
		}
		if _, err := cli.ReceiveMessage(discardWriter{}); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		c1.Close()
		c2.Close()
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTable2 measures the zero-byte ping-pong latency (Table 2) on
// the two LAN profiles (the WAN rows are dominated by the configured RTT).
func BenchmarkTable2(b *testing.B) {
	for _, tc := range []struct {
		name   string
		prof   netsim.Profile
		forced bool
	}{
		{"lan100/adoc", netsim.Quiet(netsim.LAN100(1)), false},
		{"lan100/forced", netsim.Quiet(netsim.LAN100(1)), true},
		{"gbit/adoc", netsim.Quiet(netsim.GbitLAN(1)), false},
		{"gbit/forced", netsim.Quiet(netsim.GbitLAN(1)), true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			min := adoc.MinLevel
			if tc.forced {
				min = adoc.MinLevel + 1
			}
			latencyRound(b, tc.prof, min, adoc.MaxLevel)
		})
	}
}

// figPoint measures one (method, size) live echo and returns the elapsed
// seconds.
func figPoint(prof netsim.Profile, method bench.Method, size int) (time.Duration, error) {
	data := datagen.ByKind(kindFor(method), size, 1)
	return bench.LiveEcho(prof, method, data)
}

func kindFor(m bench.Method) datagen.Kind {
	switch m {
	case bench.MethodAdOCBinary:
		return datagen.KindBinary
	case bench.MethodAdOCIncompress:
		return datagen.KindIncompressible
	default:
		return datagen.KindASCII
	}
}

// benchFig runs the live ping-pong for each curve of a bandwidth figure at
// a representative size.
func benchFig(b *testing.B, prof netsim.Profile, size int) {
	for _, m := range bench.Methods() {
		b.Run(string(m), func(b *testing.B) {
			b.SetBytes(int64(2 * size))
			for i := 0; i < b.N; i++ {
				if _, err := figPoint(prof, m, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3 regenerates one column of Figure 3 live (100 Mbit LAN,
// 1 MB ping-pong per curve).
func BenchmarkFig3(b *testing.B) {
	benchFig(b, netsim.Quiet(netsim.LAN100(1)), 1<<20)
}

// BenchmarkFig5 regenerates one column of Figure 5 live (Renater WAN,
// quiet = best-timing limit, 512 KB per curve to bound wall time).
func BenchmarkFig5(b *testing.B) {
	benchFig(b, netsim.Quiet(netsim.Renater(1)), 512<<10)
}

// BenchmarkFig6 regenerates one column of Figure 6 live (Internet profile,
// 512 KB per curve).
func BenchmarkFig6(b *testing.B) {
	benchFig(b, netsim.Quiet(netsim.Internet(1)), 512<<10)
}

// BenchmarkFig7 regenerates one column of Figure 7 live (Gbit LAN, 8 MB:
// the probe bypass path).
func BenchmarkFig7(b *testing.B) {
	benchFig(b, netsim.Quiet(netsim.GbitLAN(1)), 8<<20)
}

// BenchmarkFig4Model regenerates the full Figure 4/5 sweep in the
// virtual-time model — measuring the model itself (a full 14-point,
// 4-curve sweep per iteration).
func BenchmarkFig4Model(b *testing.B) {
	cfg := bench.Config{Mode: bench.ModeModel, Calib: des.CalibEra, MaxSize: 32 << 20, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := bench.FigBandwidth(cfg, "fig5"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDgemm runs one middleware dgemm request per iteration.
func benchDgemm(b *testing.B, prof netsim.Profile, n int, dense, withAdOC bool) {
	transport := gridrpc.TransportRaw
	if withAdOC {
		transport = gridrpc.TransportAdOC
	}
	var x, y []float64
	if dense {
		x, y = datagen.DenseMatrix(n, 1), datagen.DenseMatrix(n, 2)
	} else {
		x, y = datagen.SparseMatrix(n), datagen.SparseMatrix(n)
	}
	args := gridrpc.EncodeDgemmArgs(n, x, y)
	for i := 0; i < b.N; i++ {
		nw := netsim.NewNetwork(prof)
		agentLn, _ := nw.Listen("agent")
		agent := gridrpc.NewAgent()
		agent.Serve(agentLn)
		srvLn, _ := nw.Listen("server")
		srv := gridrpc.NewServer("server", transport)
		srv.Register("dgemm", gridrpc.DgemmService)
		srv.Serve(srvLn)
		if err := srv.RegisterWithAgent(nw, "agent"); err != nil {
			b.Fatal(err)
		}
		client := gridrpc.NewClient(nw, "agent", transport)
		if _, err := client.Call("dgemm", args); err != nil {
			b.Fatal(err)
		}
		srv.Close()
		agent.Close()
	}
}

// BenchmarkFig8 regenerates one point of Figure 8 (NetSolve dgemm on a
// 100 Mbit LAN, n=128).
func BenchmarkFig8(b *testing.B) {
	prof := netsim.Quiet(netsim.LAN100(1))
	b.Run("dense/netsolve", func(b *testing.B) { benchDgemm(b, prof, 128, true, false) })
	b.Run("dense/adoc", func(b *testing.B) { benchDgemm(b, prof, 128, true, true) })
	b.Run("sparse/netsolve", func(b *testing.B) { benchDgemm(b, prof, 128, false, false) })
	b.Run("sparse/adoc", func(b *testing.B) { benchDgemm(b, prof, 128, false, true) })
}

// BenchmarkFig9 regenerates one point of Figure 9 (NetSolve dgemm on the
// Internet profile, n=96 to bound wall time).
func BenchmarkFig9(b *testing.B) {
	prof := netsim.Quiet(netsim.Internet(1))
	b.Run("sparse/netsolve", func(b *testing.B) { benchDgemm(b, prof, 96, false, false) })
	b.Run("sparse/adoc", func(b *testing.B) { benchDgemm(b, prof, 96, false, true) })
}

// BenchmarkAblateBufferSize regenerates the buffer-size ablation:
// per-buffer compression at the paper's 200 KB unit.
func BenchmarkAblateBufferSize(b *testing.B) {
	data := datagen.HarwellBoeing(30000, 3000, 12, 1)
	for _, bs := range []int{8 << 10, 200 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKB", bs>>10), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(data); off += bs {
					end := off + bs
					if end > len(data) {
						end = len(data)
					}
					if _, _, err := codec.Compress(7, data[off:end]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkParallelPipeline measures sender-pipeline throughput at a fixed
// DEFLATE level across in-flight windows — the scaling curve of the shared
// compression pool (Parallelism 1 is the window-of-1 case).
func BenchmarkParallelPipeline(b *testing.B) {
	data := datagen.ByKind(datagen.KindASCII, 4<<20, 1)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := bench.PipelineThroughput(p, adoc.Level(7), data, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures the raw engine pipeline over an
// unconstrained in-memory link (how fast can AdOC itself go).
func BenchmarkEngineThroughput(b *testing.B) {
	prof := netsim.Profile{Name: "mem", BandwidthBps: 100e9, Latency: time.Microsecond, MTU: 64 << 10, SocketBuf: 8 << 20}
	for _, kind := range datagen.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			data := datagen.ByKind(kind, 4<<20, 1)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := bench.LiveEcho(prof, bench.MethodAdOCASCII, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
