package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sliced is a window's end-to-end figures taken over slices of
// consecutive ops, leaving out the slices during which the host took the
// most CPU time from this machine: on a shared host another tenant's
// burst then moves the slices it hit rather than the whole figure.
type sliced struct {
	goodput, opsPerS float64 // medians over the kept slices
	p50, tail        float64 // over the ops of the kept slices
	slices, kept     int
	keptOps          int
}

// minFilteredSlices is the fewest slices a window must have before the
// ones with the most CPU steal are left out.
const minFilteredSlices = 8

// sliceStats splits the window's verified ops, in completion order, into
// as many equal slices of at least n ops as there are (at least one). With
// minFilteredSlices or more it keeps the slices whose CPU steal, read from
// log, is at most the median slice's; otherwise it keeps them all. It
// returns the median goodput and op rate of the kept slices, and the
// median and pct-th percentile (Harrell-Davis) latency of their ops.
func sliceStats(w window, n int, pct float64, log *stealLog) sliced {
	order := make([]int, len(w.ends))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w.ends[order[a]] < w.ends[order[b]] })

	type slice struct {
		ops                  []int
		goodput, rate, steal float64
	}
	var all []slice
	prev := 0.0
	for _, ops := range split(order, n) {
		var bytes int64
		for _, j := range ops {
			bytes += w.sizes[j]
		}
		end := w.ends[ops[len(ops)-1]]
		d := end - prev
		all = append(all, slice{ops: ops, goodput: float64(bytes) / 1e6 / d, rate: float64(len(ops)) / d,
			steal: log.share(w.t0.Add(secs(prev)), w.t0.Add(secs(end)))})
		prev = end
	}
	kept := all
	if len(all) >= minFilteredSlices {
		var steals []float64
		for _, s := range all {
			steals = append(steals, s.steal)
		}
		limit := median(steals)
		kept = nil
		for _, s := range all {
			if s.steal <= limit {
				kept = append(kept, s)
			}
		}
	}
	var good, rate, lat []float64
	for _, s := range kept {
		good, rate = append(good, s.goodput), append(rate, s.rate)
		for _, j := range s.ops {
			lat = append(lat, w.lat[j])
		}
	}
	sort.Float64s(lat)
	return sliced{goodput: median(good), opsPerS: median(rate),
		p50: quantile(lat, 0.5), tail: hdQuantile(lat, pct/100),
		slices: len(all), kept: len(kept), keptOps: len(lat)}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// split cuts v into len(v)/n (at least one) consecutive parts of equal
// size, give or take one.
func split(v []int, n int) [][]int {
	k := max(1, len(v)/max(n, 1))
	parts := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		if p := v[i*len(v)/k : (i+1)*len(v)/k]; len(p) > 0 {
			parts = append(parts, p)
		}
	}
	return parts
}

// stealLog records, over time, the CPU time the hypervisor took from
// this machine (steal) and all CPU time, from /proc/stat. Where that is
// unavailable both stay 0 and every share reads 0.
type stealLog struct {
	at           []time.Time
	steal, total []int64
}

func (l *stealLog) record() {
	s, t := cpuTimes()
	l.at, l.steal, l.total = append(l.at, time.Now()), append(l.steal, s), append(l.total, t)
}

// share is the fraction of CPU time stolen between from and to, measured
// between the last record at or before from and the first at or after to.
func (l *stealLog) share(from, to time.Time) float64 {
	if len(l.at) == 0 {
		return 0
	}
	i := max(0, sort.Search(len(l.at), func(i int) bool { return l.at[i].After(from) })-1)
	j := min(len(l.at)-1, sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(to) }))
	return ratio(float64(l.steal[j]-l.steal[i]), float64(l.total[j]-l.total[i]))
}

func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
