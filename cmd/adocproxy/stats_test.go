package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"adoc/adocmux"
	"adoc/adocnet"
	"adoc/internal/datagen"
)

// TestStatsOutputFromLiveTunnel stands up the real gateway chain —
// plain-TCP client, ingress, one AdOC connection, egress, plain-TCP echo
// backend — pushes traffic through it, and checks the values the
// ingress's -stats line renders instead of merely smoke-running it: the
// adapt snapshot must carry the negotiated bounds and a coherent level,
// and the line must print them.
func TestStatsOutputFromLiveTunnel(t *testing.T) {
	// Backend echo server.
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.(*net.TCPConn).CloseWrite()
			}()
		}
	}()

	// Gateways with a compression floor (loopback outruns any codec) and
	// bounds that must show up verbatim in the stats line.
	opts := adocmux.TransportOptions()
	opts.MinLevel = 1
	opts.MaxLevel = 9

	egressLn, err := adocnet.Listen("tcp", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer egressLn.Close()
	eg := adocmux.NewEgress(backend.Addr().String(), adocmux.Config{})
	go eg.Serve(egressLn)
	defer eg.Close()

	ingressLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ingressLn.Close()
	in := adocmux.NewIngress(egressLn.Addr().String(), opts, adocmux.Config{})
	go in.Serve(ingressLn)
	defer in.Close()

	// One plain-TCP client pushes a compressible megabyte and reads the
	// echo back.
	payload := datagen.ASCII(1<<20, 1)
	conn, err := net.Dial("tcp", ingressLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(payload)
		if cerr := conn.(*net.TCPConn).CloseWrite(); err == nil {
			err = cerr
		}
		werr <- err
	}()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("echo not byte-identical through the tunnel")
	}

	st, ok := in.Stats()
	if !ok {
		t.Fatal("ingress has no live session after traffic")
	}
	pin, pout := in.TunnelBytes()
	line := FormatStats(st, TunnelTraffic{In: pin, Out: pout})
	lv := st.Adapt
	if lv.Min != 1 || lv.Max != 9 {
		t.Errorf("bounds [%d,%d], want negotiated [1,9]\nline: %s", lv.Min, lv.Max, line)
	}
	if lv.Level < lv.Min || lv.Level > lv.Max {
		t.Errorf("level %d outside bounds [%d,%d]\nline: %s", lv.Level, lv.Min, lv.Max, line)
	}
	if st.RawSent <= 0 || st.WireSent <= 0 {
		t.Errorf("byte counters raw=%d wire=%d\nline: %s", st.RawSent, st.WireSent, line)
	}
	// Compression floor 1 on compressible text: the tunnel must have
	// saved bytes.
	if st.WireSent >= st.RawSent {
		t.Errorf("tunnel did not compress: raw=%d wire=%d\nline: %s", st.RawSent, st.WireSent, line)
	}
	// The 1 MB pushed in and the 1 MB echoed back both crossed the
	// ingress pipes; the gateway counters must carry them.
	if pin < int64(len(payload)) || pout < int64(len(payload)) {
		t.Errorf("tunnel bytes in=%d out=%d, want >= %d each\nline: %s", pin, pout, len(payload), line)
	}
	// The line renders exactly these values.
	for _, want := range []string{
		fmt.Sprintf("raw=%dB wire=%dB", st.RawSent, st.WireSent),
		fmt.Sprintf("level=%d bounds=[1,9]", lv.Level),
		fmt.Sprintf("piped(in)=%dB piped(out)=%dB", pin, pout),
	} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line %q missing %q", line, want)
		}
	}
}
