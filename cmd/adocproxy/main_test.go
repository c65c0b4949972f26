package main

import (
	"strings"
	"testing"
	"time"

	"adoc"
	"adoc/internal/adapt"
)

// TestFormatStats pins the stats line the proxy logs: byte counters,
// ratio, level and bounds always; pin, entropy bypass, forbidden set,
// bandwidth and the gateway's piped bytes only when present.
func TestFormatStats(t *testing.T) {
	snapshot := func(level, min, max adoc.Level) adapt.Snapshot {
		return adapt.Snapshot{
			Level: level, Min: min, Max: max,
			ForbiddenFor: make([]time.Duration, int(adoc.MaxLevel)+1),
			BandwidthBps: make([]float64, int(adoc.MaxLevel)+1),
		}
	}

	partial := adoc.Stats{RawSent: 1000, WireSent: 250, Adapt: snapshot(3, 1, 9)}
	partial.Adapt.PinRemaining = 7
	partial.Adapt.ForbiddenFor[5] = 300 * time.Millisecond
	partial.Adapt.BandwidthBps[3] = 12_500_000

	// Every field the proxy can print.
	full := adoc.Stats{RawSent: 4000, WireSent: 1000, Adapt: snapshot(4, 1, 9)}
	full.Adapt.PinRemaining = 3
	full.Adapt.BypassRun = 2
	full.Adapt.ForbiddenFor[1] = 100 * time.Millisecond
	full.Adapt.ForbiddenFor[5] = 300 * time.Millisecond
	full.Adapt.ForbiddenFor[8] = 50 * time.Millisecond
	full.Adapt.BandwidthBps[4] = 12_500_000

	cases := []struct {
		name     string
		stats    adoc.Stats
		tunnel   []TunnelTraffic
		want     []string
		excluded []string
	}{
		{
			name:  "partial",
			stats: partial,
			want: []string{
				"ratio=4.00", "level=3", "bounds=[1,9]",
				"pinned(incompressible)=7pkts", "forbidden(diverged)=[gzip 4]",
				"level-bw=12.5MB/s",
			},
			excluded: []string{"bypass", "piped"},
		},
		{
			name:   "full",
			stats:  full,
			tunnel: []TunnelTraffic{{In: 5000, Out: 6000}},
			want: []string{
				"raw=4000B wire=1000B ratio=4.00 level=4 bounds=[1,9]",
				"pinned(incompressible)=3pkts", "bypass(entropy)=2bufs",
				"forbidden(diverged)=[lzf gzip 4 gzip 7]", "level-bw=12.5MB/s",
				"piped(in)=5000B piped(out)=6000B",
			},
		},
		{
			// A quiet connection renders without the conditional parts.
			name:     "quiet",
			stats:    adoc.Stats{Adapt: snapshot(0, 0, 0)},
			want:     []string{"raw=0B wire=0B ratio=1.00 level=0 bounds=[0,0]"},
			excluded: []string{"pinned", "bypass", "forbidden", "level-bw", "piped"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line := FormatStats(tc.stats, tc.tunnel...)
			for _, want := range tc.want {
				if !strings.Contains(line, want) {
					t.Errorf("stats line %q missing %q", line, want)
				}
			}
			for _, absent := range tc.excluded {
				if strings.Contains(line, absent) {
					t.Errorf("stats line %q should not contain %q", line, absent)
				}
			}
		})
	}
}
