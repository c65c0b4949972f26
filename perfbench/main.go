// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the AdOC stack in a single process, verifies every
// op's output, and prints its metrics, the last line being one JSON
// object:
//
//	perfbench --workload bulk-lan100 --seed 1 --seconds 20 --trace 0
//
// Workloads: bulk-lan100 (whole messages over a simulated 100 Mbit LAN),
// rpc-loopback (adocrpc calls over loopback TCP), proxy-mixed (echoes
// through an adocmux ingress/egress gateway pair over loopback), or all
// three in turn. --trace 0 reports the end-to-end metrics; --trace 1
// makes the traced run that reports the per-layer metrics and writes the
// recorded spans under .bench_build/spans/. The run exits 1 if any op
// failed verification and 2 if it could not run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "bulk-lan100, rpc-loopback, proxy-mixed, or all")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = allWorkloads
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	total := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	for _, n := range names {
		cfg := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
		if cfg.trace {
			cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", n, *seed))
		}
		o, err := run(workloads[n], cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(2)
		}
		r := report(n, *seed, o)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[n+"."+k] = v
		}
		if len(names) == 1 {
			total = r
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// report prints one workload's metrics, one per line with its unit (a
// per-layer ratio with the values of its bases, and the end-to-end metric
// it should move), and returns its result object.
func report(name string, seed int64, o *outcome) resultOut {
	r := resultOut{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricOut{}}
	fmt.Printf("# %s seed=%d attempted=%d failed=%d\n", name, seed, o.attempted, o.failed)
	keys := slices.Sorted(maps.Keys(o.metrics))
	// Longest names first, so that a name is never replaced inside a
	// longer one it prefixes.
	var bases []string
	for _, k := range slices.SortedFunc(slices.Values(keys), func(a, b string) int { return len(b) - len(a) }) {
		if strings.HasPrefix(k, "base.") {
			bases = append(bases, k, fmt.Sprintf("%s(%.6g)", k, o.metrics[k]))
		}
	}
	withBases := strings.NewReplacer(bases...)
	for _, k := range keys {
		r.Metrics[k] = metricOut{Value: o.metrics[k], Unit: unitOf(k)}
		line := fmt.Sprintf("%-40s %14.6g %s", k, o.metrics[k], unitOf(k))
		if i := slices.IndexFunc(layerMetrics, func(m layerMetric) bool { return m.name == k }); i >= 0 {
			if m := layerMetrics[i]; m.base != "" {
				line += " = " + withBases.Replace(m.base)
			}
			if !strings.HasPrefix(k, "base.") {
				line += "; moves " + layerMetrics[i].moves
			}
		}
		fmt.Println(line)
	}
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed %s\n", name, e)
	}
	return r
}
