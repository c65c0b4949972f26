// Command adocxfer sends and receives files over TCP with AdOC adaptive
// compression — an scp-lite built on the library, demonstrating the
// adocnet transport over a real network.
//
// Receiver:  adocxfer -recv -listen :9000 -out dest.dat
// Sender:    adocxfer -send src.dat -to host:9000 [-min 0 -max 10]
//
// Both ends open the connection through adocnet, so the compression
// parameters (packet/buffer sizes, level bounds) are negotiated at
// connect time: either side may restrict them and the transfer uses the
// intersection. The sender prints the negotiated configuration and the
// adaptation trace when -trace is set.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adoc"
	"adoc/adocnet"
)

func main() {
	var (
		send   = flag.String("send", "", "file to send")
		to     = flag.String("to", "", "destination host:port (send mode)")
		recv   = flag.Bool("recv", false, "receive one file")
		listen = flag.String("listen", ":9000", "listen address (receive mode)")
		out    = flag.String("out", "received.dat", "output file (receive mode)")
		min    = flag.Int("min", 0, "minimum compression level (>=1 forces compression)")
		max    = flag.Int("max", 10, "maximum compression level (0 disables compression)")
		packet = flag.Int("packet", 0, "packet size offer in bytes (0 = default 8 KB)")
		buffer = flag.Int("buffer", 0, "buffer size offer in bytes (0 = default 200 KB)")
		trace  = flag.Bool("trace", false, "log negotiation, level changes and probe decisions")
	)
	flag.Parse()

	switch {
	case *recv:
		if err := receive(*listen, *out, options(*min, *max, *packet, *buffer, *trace)); err != nil {
			fmt.Fprintln(os.Stderr, "adocxfer:", err)
			os.Exit(1)
		}
	case *send != "" && *to != "":
		if err := transmit(*send, *to, options(*min, *max, *packet, *buffer, *trace), *trace); err != nil {
			fmt.Fprintln(os.Stderr, "adocxfer:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: adocxfer -recv -listen :9000 -out f.dat | adocxfer -send f.dat -to host:9000")
		os.Exit(2)
	}
}

// options builds this endpoint's negotiation offer.
func options(min, max, packet, buffer int, trace bool) adocnet.Options {
	opts := adocnet.Defaults()
	opts.MinLevel = adoc.Level(min)
	opts.MaxLevel = adoc.Level(max)
	opts.PacketSize = packet
	opts.BufferSize = buffer
	if trace {
		opts.Trace = adoc.Trace{
			OnTransition: func(tr adoc.AdaptTransition) {
				fmt.Printf("  level %v -> %v (%s)\n", tr.From, tr.To, tr.Cause)
			},
			OnProbe: func(bps float64, bypass bool) {
				fmt.Printf("  probe: %.1f Mbit/s, bypass=%v\n", bps*8/1e6, bypass)
			},
			OnDivergence: func(from, to adoc.Level) {
				fmt.Printf("  divergence: %v -> %v\n", from, to)
			},
		}
	}
	return opts
}

func receive(listen, out string, opts adocnet.Options) error {
	ln, err := adocnet.Listen("tcp", listen, opts)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("listening on %s, writing to %s\n", listen, out)
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("negotiated %v with %v\n", conn.Negotiated(), conn.RemoteAddr())
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	n, err := conn.ReceiveMessage(f)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("received %d bytes in %v (%.2f Mbit/s application-level)\n",
		n, elapsed.Round(time.Millisecond), float64(n)*8/1e6/elapsed.Seconds())
	return nil
}

func transmit(path, to string, opts adocnet.Options, trace bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	conn, err := adocnet.Dial("tcp", to, opts)
	if err != nil {
		return err
	}
	defer conn.Close()
	if trace {
		fmt.Printf("negotiated %v with %v\n", conn.Negotiated(), conn.RemoteAddr())
	}
	start := time.Now()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size, sent, err := conn.SendStream(f, fi.Size())
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("sent %d bytes as %d wire bytes (ratio %.2f) in %v\n",
		size, sent, float64(size)/float64(sent), elapsed.Round(time.Millisecond))
	return nil
}
