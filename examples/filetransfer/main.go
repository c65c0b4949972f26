// Filetransfer: ship a generated Harwell-Boeing matrix file across a
// simulated WAN (the paper's Renater profile) with adoc_send_file /
// adoc_receive_file, tracing the compression-level adaptation as the
// link's available bandwidth fluctuates.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"adoc"
	"adoc/internal/datagen"
	"adoc/internal/netsim"
)

// transfer sends hb over a fresh link with the given level bounds and
// returns the elapsed time and wire bytes.
func transfer(prof netsim.Profile, hb []byte, min, max adoc.Level, trace bool) (time.Duration, int64) {
	a, b := netsim.Pair(prof)
	defer a.Close()
	defer b.Close()

	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		conn, err := adoc.NewConn(b, adoc.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		var sink bytes.Buffer
		if _, err := conn.ReceiveMessage(&sink); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), hb) {
			log.Fatal("file corrupted in transit")
		}
	}()

	opts := adoc.DefaultOptions()
	if trace {
		opts.Trace = adoc.Trace{
			OnProbe: func(bps float64, bypass bool) {
				fmt.Printf("  probe measured %.2f Mbit/s -> bypass=%v\n", bps*8/1e6, bypass)
			},
			OnTransition: func(tr adoc.AdaptTransition) {
				fmt.Printf("  level %-7v -> %v (%s)\n", tr.From, tr.To, tr.Cause)
			},
			OnDivergence: func(from, to adoc.Level) {
				fmt.Printf("  divergence guard: %v demoted to %v\n", from, to)
			},
		}
	}
	conn, err := adoc.NewConn(a, opts)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	_, sent, err := conn.SendStreamLevels(bytes.NewReader(hb), int64(len(hb)), min, max)
	if err != nil {
		log.Fatal(err)
	}
	<-recvDone
	return time.Since(start), sent
}

func main() {
	// A noisy WAN: cross traffic periodically cuts the available
	// bandwidth, which is exactly the situation adaptation exists for.
	prof := netsim.Renater(7)
	hb := datagen.HarwellBoeing(400000, 42000, 10, 7)
	fmt.Printf("sending a %.1f MB Harwell-Boeing matrix file over %s\n",
		float64(len(hb))/(1<<20), prof)

	fmt.Println("with AdOC (adaptive):")
	adocTime, sent := transfer(prof, hb, adoc.MinLevel, adoc.MaxLevel, true)
	fmt.Println("without compression (same link, levels forced to 0):")
	rawTime, _ := transfer(prof, hb, adoc.MinLevel, adoc.MinLevel, false)

	fmt.Printf("\nAdOC: %v (%.0f KB on the wire, ratio %.2f)\nraw:  %v\nspeedup %.2fx\n",
		adocTime.Round(time.Millisecond), float64(sent)/1024,
		float64(len(hb))/float64(sent), rawTime.Round(time.Millisecond),
		float64(rawTime)/float64(adocTime))
}
