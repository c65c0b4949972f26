package core

import (
	"bytes"
	"errors"
	"hash/adler32"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adoc/internal/clock"
	"adoc/internal/codec"
	"adoc/internal/wire"
)

// oneBufferOptions puts every stream message on a manual clock (the link
// estimate never closes a sample, so nothing bypasses) and lowers the
// small-message threshold to 1 byte, so a level-0 message of any size
// is a stream message too.
func oneBufferOptions(par int) Options {
	o := DefaultOptions()
	o.Parallelism = par
	o.SmallThreshold = 1
	o.Clock = clock.NewManual(time.Unix(0, 0))
	return o
}

// sendBoth sends p as one message at level bounds [lvl, lvl] through a
// fresh engine's one-buffer path and through a fresh engine's pipeline,
// returning both wire streams.
func sendBoth(t testing.TB, o Options, p []byte, lvl codec.Level) (inline, piped []byte) {
	t.Helper()
	var a, b bytes.Buffer
	ea, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &a}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ea.Close()
	eb, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &b}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Close()
	ea.wmu.Lock()
	_, _, err = ea.writeOneBuffer(p, lvl, lvl)
	ea.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	eb.wmu.Lock()
	_, _, err = eb.writeStream(bytes.NewReader(p), int64(len(p)), lvl, lvl)
	eb.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := ea.Stats(), eb.Stats(); sa.RawSent != sb.RawSent || sa.WireSent != sb.WireSent || sa.MsgsSent != sb.MsgsSent {
		t.Fatalf("stats differ: one-buffer %+v, pipeline %+v", sa, sb)
	}
	return a.Bytes(), b.Bytes()
}

// TestOneBufferWireMatchesPipeline: a message that fits one adaptation
// buffer goes out in the very bytes the pipeline would send, at every
// forced level and window, at the packet and buffer boundaries, for
// compressible, incompressible and mixed content (the last can end a
// DEFLATE group early and ship the rest as a second, raw group).
func TestOneBufferWireMatchesPipeline(t *testing.T) {
	mixed := append(compressibleData(DefaultBufferSize/2), incompressibleData(DefaultBufferSize/2, 3)...)
	contents := map[string][]byte{
		"text":   compressibleData(DefaultBufferSize),
		"random": incompressibleData(DefaultBufferSize, 7),
		"mixed":  mixed,
	}
	for _, par := range []int{1, 4} {
		o := oneBufferOptions(par)
		for name, data := range contents {
			for _, n := range []int{1, DefaultPacketSize, DefaultPacketSize + 1, DefaultBufferSize} {
				for lvl := codec.MinLevel; lvl <= codec.MaxLevel; lvl++ {
					if testing.Short() && name != "text" && lvl%3 != 0 {
						continue
					}
					inline, piped := sendBoth(t, o, data[:n], lvl)
					if !bytes.Equal(inline, piped) {
						t.Fatalf("par %d %s %d B level %d: one-buffer sent %d bytes, pipeline %d (or different bytes)",
							par, name, n, lvl, len(inline), len(piped))
					}
				}
			}
		}
	}
}

// FuzzOneBufferWire: for any payload of at most one buffer and any forced
// level, the one-buffer sender and the pipeline send identical bytes.
// Small packets and buffers keep multi-packet groups within reach of
// short inputs.
func FuzzOneBufferWire(f *testing.F) {
	f.Add([]byte("a"), uint8(0))
	f.Add(compressibleData(4096), uint8(1))
	f.Add(compressibleData(1000), uint8(6))
	f.Add(incompressibleData(3000, 1), uint8(9))
	f.Fuzz(func(t *testing.T, p []byte, lvl uint8) {
		o := oneBufferOptions(1)
		o.PacketSize = 256
		o.BufferSize = 4096
		if len(p) > o.BufferSize {
			p = p[:o.BufferSize]
		}
		inline, piped := sendBoth(t, o, p, codec.Level(lvl)%(codec.MaxLevel+1))
		if !bytes.Equal(inline, piped) {
			t.Fatalf("one-buffer sent %d bytes, pipeline %d (or different bytes)", len(inline), len(piped))
		}
	})
}

// goroutineID returns the calling goroutine's ID from its stack header.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// callSite records, for every Read or Write through it, the goroutine it
// ran on and the goroutines alive at that moment.
type callSite struct {
	mu         sync.Mutex
	calls      int
	foreign    int // calls from a goroutine other than owner
	owner      uint64
	goroutines int // most goroutines alive during a call
}

func (c *callSite) note() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if goroutineID() != c.owner {
		c.foreign++
	}
	c.goroutines = max(c.goroutines, runtime.NumGoroutine())
}

type watchedConn struct {
	r      io.Reader
	w      io.Writer
	rd, wr callSite
}

func (c *watchedConn) Read(p []byte) (int, error)  { c.rd.note(); return c.r.Read(p) }
func (c *watchedConn) Write(p []byte) (int, error) { c.wr.note(); return c.w.Write(p) }

// TestOneBufferMessageOneWriteNoGoroutines: a stream message of at most
// one buffer costs the sender one Write, made on the caller's goroutine
// with no goroutine started, and the receiver reads it on the caller's
// goroutine too, starting none. A message of two or eight buffers, for
// contrast, is read by the pipeline's one reception goroutine, and no
// other goroutine starts besides the shared pool's workers.
func TestOneBufferMessageOneWriteNoGoroutines(t *testing.T) {
	for _, lvl := range []codec.Level{0, codec.LZF, 6} {
		for _, n := range []int{1, DefaultPacketSize + 1, 64 << 10, DefaultBufferSize} {
			var wireBuf bytes.Buffer
			me := goroutineID()
			send := &watchedConn{r: bytes.NewReader(nil), w: &wireBuf, wr: callSite{owner: me}}
			se, err := New(send, oneBufferOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			if _, err := se.WriteMessageLevels(compressibleData(n), lvl, lvl); err != nil {
				t.Fatal(err)
			}
			se.Close()
			if w := &send.wr; w.calls != 1 || w.foreign != 0 || w.goroutines > before {
				t.Fatalf("level %d, %d B: %d Writes, %d off the caller's goroutine, %d goroutines alive (%d before)",
					lvl, n, w.calls, w.foreign, w.goroutines, before)
			}

			recv := &watchedConn{r: &wireBuf, rd: callSite{owner: me}}
			re, err := New(recv, oneBufferOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			before = runtime.NumGoroutine()
			var got bytes.Buffer
			if _, err := re.ReceiveMessage(&got); err != nil {
				t.Fatal(err)
			}
			re.Close()
			if r := &recv.rd; r.foreign != 0 || r.goroutines > before || !bytes.Equal(got.Bytes(), compressibleData(n)) {
				t.Fatalf("level %d, %d B: %d of %d Reads off the caller's goroutine, %d goroutines alive (%d before), %d bytes received",
					lvl, n, r.foreign, r.calls, r.goroutines, before, got.Len())
			}
		}
	}

	warmWorkerPool()
	for _, buffers := range []int{2, 8} {
		var wireBuf bytes.Buffer
		se, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &wireBuf}, oneBufferOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.WriteMessageLevels(incompressibleData(buffers*DefaultBufferSize, 1), 1, 1); err != nil {
			t.Fatal(err)
		}
		se.Close()
		recv := &watchedConn{r: &wireBuf, rd: callSite{owner: goroutineID()}}
		re, err := New(recv, oneBufferOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if _, err := re.ReceiveMessage(io.Discard); err != nil {
			t.Fatal(err)
		}
		re.Close()
		if recv.rd.foreign == 0 {
			t.Fatalf("a %d-buffer message was read on the caller's goroutine; want the reception goroutine", buffers)
		}
		if added := recv.rd.goroutines - before; added > 1 {
			t.Fatalf("a %d-buffer message added %d goroutines while it was read; want 1", buffers, added)
		}
	}
}

// TestOneBufferRoundTripAllocs bounds the allocations of a warm 64 KB
// round trip through the one-buffer paths: pooled frame and group
// buffers, nothing per packet and no pipeline.
func TestOneBufferRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var wireBuf bytes.Buffer
	o := oneBufferOptions(4)
	se, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &wireBuf}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	re, err := New(&rawConn{Reader: &wireBuf}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	p := compressibleData(64 << 10)
	roundTrip := func() {
		if _, err := se.WriteMessageLevels(p, 0, codec.MaxLevel); err != nil {
			t.Fatal(err)
		}
		if n, err := re.ReceiveMessage(io.Discard); err != nil || n != int64(len(p)) {
			t.Fatalf("received %d bytes, %v", n, err)
		}
	}
	// 5 measured; the pipeline took 67 for the same round trip.
	const ceiling = 8
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > ceiling {
		t.Fatalf("%.0f allocations per 64 KB round trip, want at most %d", allocs, ceiling)
	}
}

// TestOneBufferReadDoesNotWait: with the first group of a two-group
// one-buffer message delivered and the second still on its way, a Read
// with room to spare returns the first group without waiting for more;
// a Read blocked on the second group ends with ErrClosed when the engine
// closes.
func TestOneBufferReadDoesNotWait(t *testing.T) {
	c1, c2 := net.Pipe()
	e, err := New(c2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw := compressibleData(4096)
	var msg []byte
	msg = wire.AppendStreamHeader(msg, uint64(2*len(raw)))
	msg = wire.AppendGroup(msg, codec.MinLevel, raw, DefaultPacketSize, len(raw), adler32.Checksum(raw))
	go c1.Write(msg) // one group, then silence

	buf := make([]byte, 4*len(raw))
	n, err := e.Read(buf)
	if err != nil || !bytes.Equal(buf[:n], raw) {
		t.Fatalf("Read = %d bytes, %v; want the first group", n, err)
	}
	if _, err := e.ReceiveMessage(io.Discard); err != ErrMidMessage {
		t.Fatalf("ReceiveMessage mid-message = %v, want ErrMidMessage", err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := e.Read(buf)
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block on the socket
	e.Close()
	select {
	case err := <-readErr:
		if err != ErrClosed {
			t.Fatalf("blocked Read returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end the blocked Read")
	}
}

// endlessGroup is a stream message whose one group never ends: after the
// header and groupBegin, packets of incompressible bytes forever.
type endlessGroup struct {
	head []byte
	pkt  []byte
	off  int
	sent atomic.Int64 // the pipeline's reception goroutine reads on
}

func newEndlessGroup(total uint64) *endlessGroup {
	pkt := wire.AppendPacket(nil, incompressibleData(DefaultPacketSize, 5))
	return &endlessGroup{head: wire.AppendGroupBegin(wire.AppendStreamHeader(nil, total), codec.MinLevel), pkt: pkt}
}

func (g *endlessGroup) Read(p []byte) (int, error) {
	if len(g.head) > 0 {
		n := copy(p, g.head)
		g.head = g.head[n:]
		g.sent.Add(int64(n))
		return n, nil
	}
	n := 0
	for n < len(p) {
		c := copy(p[n:], g.pkt[g.off:])
		g.off = (g.off + c) % len(g.pkt)
		n += c
	}
	g.sent.Add(int64(n))
	return n, nil
}

// TestEndlessGroupBounded: a group whose packets never end fails once it
// carries more than any group it could legitimately be — the block a
// one-buffer or declared total could compress to (ErrBadFrame), or
// wire.MaxGroupBlock when the size is unknown (ErrTooBig) — having
// allocated no more than a small multiple of what the peer sent.
func TestEndlessGroupBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		total uint64
		want  error
	}{
		{"one buffer", 64 << 10, wire.ErrBadFrame},
		{"declared 1 MB", 1 << 20, wire.ErrBadFrame},
		{"unknown size", wire.UnknownTotal, wire.ErrTooBig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newEndlessGroup(tc.total)
			e, err := New(&rawConn{Reader: src}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err = e.ReceiveMessage(io.Discard)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			sent := uint64(src.sent.Load())
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*sent+1<<20 {
				t.Fatalf("allocated %d bytes for a group the peer sent %d bytes of", alloc, sent)
			}
		})
	}
}

// TestOverDeclaredGroupsFail: groups carrying more raw bytes than the
// stream header declared fail the message with ErrBadFrame, on the
// one-buffer path and on the pipeline alike, after the groups within the
// declared size are delivered.
func TestOverDeclaredGroupsFail(t *testing.T) {
	raw := compressibleData(3000)
	group := wire.AppendGroup(nil, codec.MinLevel, raw, DefaultPacketSize, len(raw), adler32.Checksum(raw))
	for _, total := range []uint64{uint64(len(raw)), DefaultBufferSize + 1} {
		msg := wire.AppendStreamHeader(nil, total)
		for len(msg) < int(total)+3*len(group) {
			msg = append(msg, group...)
		}
		msg = wire.AppendMsgEnd(msg)
		for _, api := range receiveAPIs {
			got, err := receiveFrom(t, msg, api.recv)
			if !errors.Is(err, wire.ErrBadFrame) {
				t.Fatalf("declared %d, %s: err = %v, want ErrBadFrame", total, api.name, err)
			}
			if want := int(total) / len(raw) * len(raw); len(got) != want {
				t.Fatalf("declared %d, %s: delivered %d bytes before the error, want %d", total, api.name, len(got), want)
			}
		}
	}
}

// countedLink is a meteredLink that counts Writes and keeps the bytes.
type countedLink struct {
	*meteredLink
	writes int
	sent   bytes.Buffer
}

func (c *countedLink) Write(p []byte) (int, error) {
	c.writes++
	c.sent.Write(p)
	return c.meteredLink.Write(p)
}

// TestBypassOneWritePerGroup: on a fast link a bypassed message costs one
// Write per raw group — the stream header rides with the first group and
// MsgEnd with the last — and a one-buffer message a single Write, with
// the same bytes a receiver decodes either way.
func TestBypassOneWritePerGroup(t *testing.T) {
	l := &countedLink{meteredLink: newMeteredLink(1e9, 0)}
	o := DefaultOptions()
	o.Clock = l.clk
	o.SmallThreshold = 8 << 10
	e, err := New(l, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The first message probes and seeds the link estimate.
	if _, err := e.WriteMessage(compressibleData(1 << 20)); err != nil {
		t.Fatal(err)
	}
	groups := func(n int) int { return (n + DefaultBufferSize - 1) / DefaultBufferSize }
	var want []byte
	for _, tc := range []struct {
		name   string
		n      int
		send   func(p []byte) error
		writes int
	}{
		{"known size", 1 << 20, func(p []byte) error { _, err := e.WriteMessage(p); return err }, groups(1 << 20)},
		{"one buffer", 100 << 10, func(p []byte) error { _, err := e.WriteMessage(p); return err }, 1},
		{"unknown size, short tail", 1 << 20, func(p []byte) error {
			_, _, err := e.SendMessage(bytes.NewReader(p), -1)
			return err
		}, groups(1 << 20)},
		{"unknown size, whole buffers", 5 * DefaultBufferSize, func(p []byte) error {
			_, _, err := e.SendMessage(bytes.NewReader(p), -1)
			return err
		}, 5 + 1}, // MsgEnd goes alone once the source ends on a buffer boundary
	} {
		l.writes = 0
		l.clk.Advance(time.Second)
		before := e.Stats().ProbeBypasses
		p := compressibleData(tc.n)
		if err := tc.send(p); err != nil {
			t.Fatal(err)
		}
		if e.Stats().ProbeBypasses != before+1 || l.writes != tc.writes {
			t.Fatalf("%s: bypassed %v, %d Writes; want bypassed, %d Writes",
				tc.name, e.Stats().ProbeBypasses > before, l.writes, tc.writes)
		}
		want = append(want, p...)
	}
	r, err := New(&rawConn{Reader: &l.sent}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got[1<<20:], want) {
		t.Fatalf("received %d bytes (%v), want the %d sent after the probe", len(got)-(1<<20), err, len(want))
	}
}
