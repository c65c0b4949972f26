package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// small shrinks a workload so a test run takes about a second: the same
// stack and verification, with smaller payloads.
func small(w workload) workload {
	w.mix.maxSize = min(w.mix.maxSize, 256<<10)
	w.mix.minSize = min(w.mix.minSize, w.mix.maxSize/4)
	w.mix.strata, w.mix.blocks = 2, 2
	w.mix.poolSize = 1 << 20
	w.codecMB = 1
	return w
}

func TestRunVerifiesEveryOp(t *testing.T) {
	for _, name := range allWorkloads {
		t.Run(name, func(t *testing.T) {
			o, err := run(small(workloads[name]), runConfig{seed: 3, dur: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.errs)
			}
			for _, m := range e2eMetrics {
				if v, ok := o.metrics[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive number", m.name, v)
				}
			}
		})
	}
}

// A byte flipped on the wire must end as a counted failure, never as a
// crash or a hang, and the run must carry on.
func TestCorruptedByteIsCounted(t *testing.T) {
	for _, name := range allWorkloads {
		t.Run(name, func(t *testing.T) {
			o, err := run(small(workloads[name]), runConfig{seed: 4, dur: time.Second, corruptAt: 2})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed == 0 {
				t.Fatalf("corrupted run reports no failed op (attempted %d)", o.attempted)
			}
			if o.failed == o.attempted {
				t.Fatalf("every op failed (%d): the run did not recover: %v", o.failed, o.errs)
			}
			if f := o.metrics["verified_frac"]; !(f < 1) {
				t.Fatalf("verified_frac = %v, want below 1", f)
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range allWorkloads {
		t.Run(name, func(t *testing.T) {
			o, err := run(small(workloads[name]), runConfig{seed: 5, dur: time.Second, trace: true, spansPath: filepath.Join(t.TempDir(), "spans.jsonl")})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range layerMetrics {
				if _, ok := o.metrics[m.name]; !ok {
					t.Errorf("%s missing", m.name)
				}
			}
		})
	}
}

func TestCheckLayersFailsOnMissingMetric(t *testing.T) {
	got := map[string]float64{}
	for _, m := range layerMetrics {
		got[m.name] = 1
	}
	if err := checkLayers(wBulk, got); err != nil {
		t.Fatal(err)
	}
	delete(got, "core.drain_ms.p50")
	if err := checkLayers(wBulk, got); err == nil {
		t.Fatal("missing core.drain_ms.p50 on bulk-lan100 not reported")
	}
	got["core.drain_ms.p50"] = math.NaN()
	if err := checkLayers(wBulk, got); err == nil {
		t.Fatal("NaN core.drain_ms.p50 on bulk-lan100 not reported")
	}
	if err := checkLayers(wRPC, got); err != nil {
		t.Fatalf("core.drain_ms.p50 does not apply to rpc-loopback: %v", err)
	}
}

// Two seeds give different op sequences with the same size and content
// distribution: every block holds each (content, size-stratum) pair once.
func TestSeedsChangeSequenceNotDistribution(t *testing.T) {
	for _, name := range allWorkloads {
		m := workloads[name].mix
		a, b := genOps(1, m), genOps(2, m)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d ops", name, len(a), len(b))
		}
		same := 0
		for i := range a {
			if a[i].size == b[i].size && a[i].kind == b[i].kind {
				same++
			}
		}
		if same > len(a)/10 {
			t.Errorf("%s: %d of %d ops identical across seeds", name, same, len(a))
		}
		span := math.Log(float64(m.maxSize) / float64(m.minSize))
		for _, ops := range [][]opSpec{a, b} {
			for blk := 0; blk < m.blocks; blk++ {
				// The j-th smallest size of each kind lies in stratum j.
				sizes := make([][]int, len(contentKinds))
				for _, o := range ops[blk*m.blockLen() : (blk+1)*m.blockLen()] {
					sizes[o.kind] = append(sizes[o.kind], o.size)
				}
				for k, ks := range sizes {
					if len(ks) != m.strata {
						t.Fatalf("%s block %d: %d ops of kind %d, want %d", name, blk, len(ks), k, m.strata)
					}
					slices.Sort(ks)
					for j, size := range ks {
						u := math.Log(float64(size)/float64(m.minSize)) / span * float64(m.strata)
						if u < float64(j)-0.05 || u > float64(j+1)+0.05 {
							t.Fatalf("%s block %d: kind %d size %d is not in stratum %d", name, blk, k, size, j)
						}
					}
				}
			}
			fresh := 0
			for _, o := range ops {
				if o.fresh {
					fresh++
				}
			}
			if m.freshEvery > 0 && fresh != len(ops)/m.freshEvery {
				t.Errorf("%s: %d fresh connections in %d ops", name, fresh, len(ops))
			}
		}
	}
}

// BENCHMARK.json and the metric tables in this package name the same
// workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, allWorkloads) {
		t.Errorf("workloads %v, want %v", names, allWorkloads)
	}
	var e2e, layers []entry
	for _, m := range e2eMetrics {
		e2e = append(e2e, entry{m.name, m.unit, m.better})
	}
	for _, m := range layerMetrics {
		layers = append(layers, entry{m.name, m.unit, m.better})
	}
	if !slices.Equal(b.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, want %v", b.EndToEnd, e2e)
	}
	if !slices.Equal(b.PerLayer, layers) {
		t.Errorf("per_layer %v, want %v", b.PerLayer, layers)
	}
}

func TestHDQuantile(t *testing.T) {
	for _, n := range []int{20, 192, 2048, 32768} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			// For the ranks 1..n the estimate is the expected rank q(n+1),
			// capped by the largest rank.
			if got, want := hdQuantile(v, q), math.Min(q*float64(n+1), float64(n)); math.Abs(got-want) > 0.01*want+0.5 {
				t.Errorf("n=%d q=%v: %v, want about %v", n, q, got, want)
			}
		}
	}
}
