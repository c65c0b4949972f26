package core

import (
	"bytes"
	"errors"
	"hash/adler32"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/wire"
)

// pipePair returns two engines joined by an in-memory full-duplex pipe.
func pipePair(t *testing.T, opts Options) (*Engine, *Engine) {
	t.Helper()
	return pipePairOpts(t, opts, opts)
}

// pipePairOpts is pipePair with per-side options.
func pipePairOpts(t *testing.T, o1, o2 Options) (*Engine, *Engine) {
	t.Helper()
	c1, c2 := net.Pipe()
	e1, err := New(c1, o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(c2, o2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e1.Close(); e2.Close() })
	return e1, e2
}

// smallPipelineOptions shrinks all thresholds so tests exercise the
// adaptive pipeline with kilobytes instead of megabytes.
func smallPipelineOptions() Options {
	o := DefaultOptions()
	o.SmallThreshold = 4 * 1024
	o.BufferSize = 8 * 1024
	o.PacketSize = 1024
	o.DisableProbe = true
	return o
}

func compressibleData(n int) []byte {
	const base = "adaptive online compression for grid middleware data transfer \n"
	s := strings.Repeat(base, 1+n/len(base))
	return []byte(s[:n])
}

func incompressibleData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// sendRecv pushes p through e1 -> e2 and returns what the reader got.
func sendRecv(t *testing.T, e1, e2 *Engine, p []byte) []byte {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessage(p)
		errCh <- err
	}()
	got := make([]byte, 0, len(p))
	buf := make([]byte, 64*1024)
	for len(got) < len(p) {
		n, err := e2.Read(buf)
		if err != nil {
			t.Fatalf("Read after %d/%d bytes: %v", len(got), len(p), err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	return got
}

func TestSmallMessageRoundtrip(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	for _, n := range []int{1, 2, 100, 4096, 100000} {
		data := compressibleData(n)
		got := sendRecv(t, e1, e2, data)
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: roundtrip mismatch", n)
		}
	}
	st := e1.Stats()
	if st.SmallSent != 5 {
		t.Fatalf("SmallSent = %d, want 5", st.SmallSent)
	}
}

func TestLargeCompressibleRoundtrip(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(300 * 1024)
	got := sendRecv(t, e1, e2, data)
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := e1.Stats()
	if st.SmallSent != 0 {
		t.Fatal("large message took the small path")
	}
	if st.WireSent >= st.RawSent {
		t.Fatalf("no compression achieved: raw %d wire %d", st.RawSent, st.WireSent)
	}
}

func TestIncompressibleRoundtripNoBlowup(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := incompressibleData(256*1024, 42)
	got := sendRecv(t, e1, e2, data)
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := e1.Stats()
	// Framing overhead must stay under 2% even for incompressible data
	// (the gzip-like guarantee of paper §2).
	if st.WireSent > st.RawSent+st.RawSent/50 {
		t.Fatalf("incompressible data expanded: raw %d wire %d", st.RawSent, st.WireSent)
	}
}

func TestByteStreamSemantics(t *testing.T) {
	// Two writes, reader sees one concatenated byte stream and can split
	// its reads arbitrarily (60/40 split of paper §4.1).
	e1, e2 := pipePair(t, smallPipelineOptions())
	a := compressibleData(60 * 1024)
	b := incompressibleData(40*1024, 7)
	go func() {
		e1.WriteMessage(a)
		e1.WriteMessage(b)
	}()
	want := append(append([]byte(nil), a...), b...)
	got := make([]byte, 0, len(want))
	part := make([]byte, 60*1024)
	for len(got) < len(want) {
		n, err := e2.Read(part)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concatenated stream mismatch")
	}
}

func TestSingleByteReads(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(10 * 1024)
	go e1.WriteMessage(data)
	got := make([]byte, 0, len(data))
	one := make([]byte, 1)
	for len(got) < len(data) {
		n, err := e2.Read(one)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, one[:n]...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("single-byte reads mismatch")
	}
}

func TestForcedCompressionSmallMessage(t *testing.T) {
	// min level 1 forces the stream path even below SmallThreshold
	// (paper §4.1: "setting min to ADOC_MIN_LEVEL+1 forces compression").
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(2 * 1024)
	done := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessageLevels(data, 1, codec.MaxLevel)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	if st := e1.Stats(); st.SmallSent != 0 {
		t.Fatal("forced compression took the small path")
	}
}

func TestDisabledCompression(t *testing.T) {
	// max level 0 disables compression entirely.
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(100 * 1024)
	done := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessageLevels(data, 0, 0)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	st := e1.Stats()
	if st.WireSent < st.RawSent {
		t.Fatalf("compression happened despite max=0: raw %d wire %d", st.RawSent, st.WireSent)
	}
}

func TestBadLevelsRejected(t *testing.T) {
	e1, _ := pipePair(t, DefaultOptions())
	if _, err := e1.WriteMessageLevels([]byte("x"), 5, 2); err != codec.ErrBadLevel {
		t.Fatalf("min>max: %v, want ErrBadLevel", err)
	}
	if _, err := e1.WriteMessageLevels([]byte("x"), 0, 42); err != codec.ErrBadLevel {
		t.Fatalf("max out of range: %v, want ErrBadLevel", err)
	}
	if _, _, err := e1.SendMessageLevels(bytes.NewReader(nil), 0, 3, 1); err != codec.ErrBadLevel {
		t.Fatalf("SendMessageLevels min>max: %v, want ErrBadLevel", err)
	}
}

func TestSendReceiveMessageFile(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(150 * 1024)
	type result struct {
		raw, wire int64
		err       error
	}
	res := make(chan result, 1)
	go func() {
		raw, w, err := e1.SendMessage(bytes.NewReader(data), int64(len(data)))
		res <- result{raw, w, err}
	}()
	var sink bytes.Buffer
	n, err := e2.ReceiveMessage(&sink)
	if err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.raw != int64(len(data)) || n != int64(len(data)) {
		t.Fatalf("raw sent %d, received %d, want %d", r.raw, n, len(data))
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("file roundtrip mismatch")
	}
	if r.wire >= int64(len(data)) {
		t.Fatalf("no compression on file path: wire %d raw %d", r.wire, len(data))
	}
}

func TestSendMessageUnknownSizeSmall(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(1000)
	go func() {
		raw, _, err := e1.SendMessage(bytes.NewReader(data), -1)
		if err != nil || raw != int64(len(data)) {
			t.Errorf("SendMessage unknown size: raw=%d err=%v", raw, err)
		}
	}()
	var sink bytes.Buffer
	n, err := e2.ReceiveMessage(&sink)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("mismatch")
	}
}

func TestSendMessageUnknownSizeLarge(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(100 * 1024)
	go func() {
		raw, _, err := e1.SendMessage(bytes.NewReader(data), -1)
		if err != nil || raw != int64(len(data)) {
			t.Errorf("SendMessage unknown size: raw=%d err=%v", raw, err)
		}
	}()
	var sink bytes.Buffer
	n, err := e2.ReceiveMessage(&sink)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("mismatch")
	}
}

func TestZeroByteMessage(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e1.WriteMessage(nil); err != nil {
			t.Error(err)
		}
		// Follow with real data so the reader can observe that the
		// zero-byte message contributed nothing.
		if _, err := e1.WriteMessage([]byte("after")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 16)
	n, err := e2.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "after" {
		t.Fatalf("got %q, want %q", buf[:n], "after")
	}
	<-done
}

func TestZeroByteReceiveMessage(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	go e1.WriteMessage(nil)
	var sink bytes.Buffer
	n, err := e2.ReceiveMessage(&sink)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestReceiveMessageMidMessageError(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(50 * 1024)
	go e1.WriteMessage(data)
	// Partially read, then attempt ReceiveMessage.
	buf := make([]byte, 100)
	if _, err := io.ReadFull(e2, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ReceiveMessage(io.Discard); err != ErrMidMessage {
		t.Fatalf("err = %v, want ErrMidMessage", err)
	}
}

func TestProbeBypassOnFastLink(t *testing.T) {
	// net.Pipe is memory-speed, far beyond 500 Mbit/s: the probe must
	// bypass compression (the Gbit behaviour of paper Figure 7).
	o := DefaultOptions()
	// net.Pipe is memory-speed but the race detector can slow it below
	// the paper's 500 Mbit/s; the behaviour under test is the bypass
	// mechanism, so a frozen clock makes every Write take no time and
	// the link read faster than any cutoff.
	o.Clock = clock.NewManual(time.Unix(0, 0))
	probed := false
	bypassed := false
	o.Trace.OnProbe = func(bps float64, bypass bool) { probed, bypassed = true, bypass }
	e1, e2 := pipePair(t, o)
	data := compressibleData(1024 * 1024)
	done := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessage(data)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	if !probed {
		t.Fatal("probe did not run")
	}
	if !bypassed {
		t.Fatal("memory-speed link did not trigger the bypass")
	}
	if st := e1.Stats(); st.ProbeBypasses != 1 {
		t.Fatalf("ProbeBypasses = %d, want 1", st.ProbeBypasses)
	}
}

func TestCloseSemantics(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e1.WriteMessage([]byte("x")); err != ErrClosed {
		t.Fatalf("Write after close: %v, want ErrClosed", err)
	}
	if _, err := e1.Read(make([]byte, 4)); err != ErrClosed {
		t.Fatalf("Read after close: %v, want ErrClosed", err)
	}
	// The peer sees a broken connection, not a hang.
	if _, err := e2.Read(make([]byte, 4)); err == nil {
		t.Fatal("peer Read after remote close succeeded")
	}
}

func TestConcurrentBidirectional(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	a := compressibleData(200 * 1024)
	b := incompressibleData(150*1024, 3)
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { defer wg.Done(); e1.WriteMessage(a) }()
	go func() { defer wg.Done(); e2.WriteMessage(b) }()
	var gotA, gotB []byte
	go func() {
		defer wg.Done()
		gotA = make([]byte, len(a))
		io.ReadFull(e2, gotA)
	}()
	go func() {
		defer wg.Done()
		gotB = make([]byte, len(b))
		io.ReadFull(e1, gotB)
	}()
	wg.Wait()
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatal("bidirectional roundtrip mismatch")
	}
}

func TestConcurrentWritersSerialized(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	const writers = 8
	const msgSize = 20 * 1024
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte('A' + i)}, msgSize)
			if _, err := e1.WriteMessage(msg); err != nil {
				t.Error(err)
			}
		}(i)
	}
	got := make([]byte, writers*msgSize)
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Messages must arrive intact (each a run of one letter), in some
	// serialized order.
	counts := map[byte]int{}
	for i := 0; i < writers; i++ {
		seg := got[i*msgSize : (i+1)*msgSize]
		for _, c := range seg {
			if c != seg[0] {
				t.Fatalf("message %d interleaved", i)
			}
		}
		counts[seg[0]]++
	}
	if len(counts) != writers {
		t.Fatalf("got %d distinct messages, want %d", len(counts), writers)
	}
}

func TestMultipleMessagesBackToBack(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	var want []byte
	const msgs = 10
	go func() {
		for i := 0; i < msgs; i++ {
			data := compressibleData(1024 * (i + 1) * 3)
			e1.WriteMessage(data)
		}
	}()
	var total int
	for i := 0; i < msgs; i++ {
		total += 1024 * (i + 1) * 3
	}
	for i := 0; i < msgs; i++ {
		want = append(want, compressibleData(1024*(i+1)*3)...)
	}
	got := make([]byte, total)
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("back-to-back messages mismatch")
	}
}

// rawConn feeds the engine a hand-crafted byte stream (failure injection).
type rawConn struct {
	io.Reader
	w io.Writer
}

func (c *rawConn) Write(p []byte) (int, error) {
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

func TestCorruptChecksumDetected(t *testing.T) {
	raw := compressibleData(1000)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, uint64(len(raw)))
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), 0xDEADBEEF) // wrong checksum
	msg = wire.AppendMsgEnd(msg)

	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(make([]byte, 2000)); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestTruncatedStreamDetected(t *testing.T) {
	var msg []byte
	msg = wire.AppendStreamHeader(msg, 100000)
	msg = wire.AppendGroupBegin(msg, 0)
	msg = wire.AppendPacket(msg, []byte("partial data then the link dies"))
	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(make([]byte, 4096)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestGarbageStreamRejected(t *testing.T) {
	e, err := New(&rawConn{Reader: strings.NewReader("this is not an adoc stream at all")}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(make([]byte, 64)); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCleanEOFBetweenMessages(t *testing.T) {
	e, err := New(&rawConn{Reader: bytes.NewReader(wire.AppendSmall(nil, []byte("bye")))}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := e.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := e.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestReservedGroupMarkerFails: marker 5 opened dictionary groups in
// older builds. A group opened with it fails the message with
// ErrBadFrame at every window, after the groups before it are delivered.
func TestReservedGroupMarkerFails(t *testing.T) {
	raw := compressibleData(1000)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, uint64(2*len(raw)))
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	msg = append(msg, 5, byte(used), 0, 0, 0, 7) // marker, level, generation
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	msg = wire.AppendMsgEnd(msg)

	for _, par := range []int{1, 4} {
		o := DefaultOptions()
		o.Parallelism = par
		e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(e)
		if !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("parallelism %d: err = %v, want ErrBadFrame", par, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("parallelism %d: delivered %d bytes before the error, want the first group's %d", par, len(got), len(raw))
		}
	}
}

func TestProtocolViolationPacketOutsideGroup(t *testing.T) {
	var msg []byte
	msg = wire.AppendStreamHeader(msg, 10)
	msg = wire.AppendPacket(msg, []byte("orphan"))
	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(make([]byte, 64)); !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(100 * 1024)
	done := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessage(data)
		done <- err
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s1, s2 := e1.Stats(), e2.Stats()
	if s1.RawSent != int64(len(data)) {
		t.Errorf("RawSent = %d, want %d", s1.RawSent, len(data))
	}
	if s2.RawReceived != int64(len(data)) {
		t.Errorf("RawReceived = %d, want %d", s2.RawReceived, len(data))
	}
	if s1.MsgsSent != 1 {
		t.Errorf("MsgsSent = %d", s1.MsgsSent)
	}
	if s1.WireSent <= 0 || s1.WireSent >= int64(len(data)) {
		t.Errorf("WireSent = %d out of expected range", s1.WireSent)
	}
	if e1.CompressionRatio() <= 1 {
		t.Errorf("CompressionRatio = %v, want > 1", e1.CompressionRatio())
	}
}

func TestOptionsSanitize(t *testing.T) {
	var o Options // all zero
	s, err := o.Effective()
	if err != nil {
		t.Fatal(err)
	}
	if s.PacketSize != DefaultPacketSize || s.BufferSize != DefaultBufferSize || s.SmallThreshold != DefaultSmallThreshold {
		t.Fatalf("defaults not applied: %+v", s)
	}
	bad := DefaultOptions()
	bad.MinLevel = 7
	bad.MaxLevel = 3
	if _, err := bad.Effective(); err == nil {
		t.Fatal("min>max accepted")
	}
	tiny := DefaultOptions()
	tiny.BufferSize = 100
	tiny.PacketSize = 1000
	s, err = tiny.Effective()
	if err != nil {
		t.Fatal(err)
	}
	if s.BufferSize < s.PacketSize {
		t.Fatal("BufferSize not raised to PacketSize")
	}
}

func TestWireOverheadSmallPath(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	go func() {
		n, err := e1.WriteMessage(make([]byte, 1000))
		if err != nil {
			t.Error(err)
		}
		if n > 1000+16 {
			t.Errorf("small message wire size %d, want <= %d", n, 1016)
		}
	}()
	buf := make([]byte, 1000)
	if _, err := io.ReadFull(e2, buf); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipelineThroughputText(b *testing.B) {
	o := smallPipelineOptions()
	o.BufferSize = 200 * 1024
	o.PacketSize = 8 * 1024
	c1, c2 := net.Pipe()
	e1, _ := New(c1, o)
	e2, _ := New(c2, o)
	defer e1.Close()
	defer e2.Close()
	data := compressibleData(1 << 20)
	go func() {
		sink := make([]byte, 1<<20)
		for {
			if _, err := io.ReadFull(e2, sink); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e1.WriteMessage(data); err != nil {
			b.Fatal(err)
		}
	}
}
