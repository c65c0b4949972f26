package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/adler32"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"adoc/internal/codec"
	"adoc/internal/wire"
)

// parallelOptions is smallPipelineOptions at an explicit worker count.
func parallelOptions(workers int) Options {
	o := smallPipelineOptions()
	o.Parallelism = workers
	return o
}

// receiveAll reads exactly total decompressed bytes from e.
func receiveAll(t *testing.T, e *Engine, total int) []byte {
	t.Helper()
	got := make([]byte, total)
	if _, err := io.ReadFull(e, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	return got
}

// TestParallelMatchesSequential sends the same deterministic message
// sequence at Parallelism 1 and 4 and requires the received byte streams to
// be identical — the in-order reassembly guarantee of the worker pool.
func TestParallelMatchesSequential(t *testing.T) {
	msgs := [][]byte{
		compressibleData(300 * 1024),
		incompressibleData(200*1024, 11),
		compressibleData(5 * 1024), // small-path message interleaved
		incompressibleData(64*1024, 13),
		compressibleData(150 * 1024),
	}
	var want int
	for _, m := range msgs {
		want += len(m)
	}
	streams := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		e1, e2 := pipePair(t, parallelOptions(workers))
		done := make(chan error, 1)
		go func() {
			for _, m := range msgs {
				if _, err := e1.WriteMessage(m); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		streams[workers] = receiveAll(t, e2, want)
		if err := <-done; err != nil {
			t.Fatalf("workers=%d WriteMessage: %v", workers, err)
		}
	}
	if !bytes.Equal(streams[1], streams[4]) {
		t.Fatal("received bytes differ between Parallelism 1 and 4")
	}
}

// TestParallelConcurrentWriters hammers one parallel engine with
// interleaved messages from concurrent writers (run under -race in CI) and
// checks that every message arrives intact and that the delivered message
// multiset matches what a window of 1 delivers.
func TestParallelConcurrentWriters(t *testing.T) {
	const writers = 6
	const perWriter = 4
	const msgSize = 40 * 1024

	run := func(workers int) map[byte]int {
		e1, e2 := pipePair(t, parallelOptions(workers))
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				msg := bytes.Repeat([]byte{byte('A' + i)}, msgSize)
				for j := 0; j < perWriter; j++ {
					if _, err := e1.WriteMessage(msg); err != nil {
						t.Errorf("writer %d: %v", i, err)
						return
					}
				}
			}(i)
		}
		got := receiveAll(t, e2, writers*perWriter*msgSize)
		wg.Wait()
		counts := map[byte]int{}
		for i := 0; i < writers*perWriter; i++ {
			seg := got[i*msgSize : (i+1)*msgSize]
			for _, c := range seg {
				if c != seg[0] {
					t.Fatalf("workers=%d: message %d interleaved", workers, i)
				}
			}
			counts[seg[0]]++
		}
		return counts
	}

	seq, par := run(1), run(4)
	for b, n := range seq {
		if par[b] != n {
			t.Fatalf("writer %c: %d messages at Parallelism 4, %d at 1", b, par[b], n)
		}
	}
}

// slowWriter delays every write so the emission FIFO backs up and the
// controller walks the level upward mid-message.
type slowWriter struct {
	delay time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return len(p), nil
}

func (w *slowWriter) Read(p []byte) (int, error) { select {} }

// TestLevelChangesOnBufferBoundaries drives the adaptive sender over a slow
// sink so the level rises mid-message, then checks via OnGroupSent that
// every level change landed on an adaptation-buffer boundary: each group is
// exactly one full buffer (the tail excepted), so no buffer was split
// between levels.
func TestLevelChangesOnBufferBoundaries(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := parallelOptions(workers)
		type group struct {
			level  codec.Level
			rawLen int
		}
		var mu sync.Mutex
		var groups []group
		o.Trace.OnGroupSent = func(level codec.Level, rawLen, wireLen, queueLen int) {
			mu.Lock()
			groups = append(groups, group{level, rawLen})
			mu.Unlock()
		}
		e, err := New(&slowWriter{delay: 300 * time.Microsecond}, o)
		if err != nil {
			t.Fatal(err)
		}
		const size = 48 * 8 * 1024 // 48 buffers at the 8 KB test BufferSize
		if _, err := e.WriteMessage(compressibleData(size)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		snapshot := append([]group(nil), groups...)
		mu.Unlock()

		levels := map[codec.Level]bool{}
		var total int
		for i, g := range snapshot {
			levels[g.level] = true
			total += g.rawLen
			if i < len(snapshot)-1 && g.rawLen != o.BufferSize {
				t.Fatalf("workers=%d: group %d carries %d raw bytes; level changes must land on %d-byte buffer boundaries",
					workers, i, g.rawLen, o.BufferSize)
			}
		}
		if total != size {
			t.Fatalf("workers=%d: groups carry %d raw bytes, want %d", workers, total, size)
		}
		if len(levels) < 2 {
			t.Fatalf("workers=%d: level never changed mid-message (levels %v); the boundary property was not exercised", workers, levels)
		}
	}
}

// TestParallelCorruptChecksumDetected feeds the receive pipeline at a
// window of 4 a group with a wrong checksum and requires ErrChecksum.
func TestParallelCorruptChecksumDetected(t *testing.T) {
	raw := compressibleData(1000)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, uint64(len(raw)))
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), 0xDEADBEEF)
	msg = wire.AppendMsgEnd(msg)

	o := DefaultOptions()
	o.Parallelism = 4
	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(make([]byte, 2000)); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

// TestParallelGoodGroupsDeliveredBeforeError checks the drain-then-error
// contract on the receive pipeline: groups that decoded cleanly before
// a corrupt one must still reach the application.
func TestParallelGoodGroupsDeliveredBeforeError(t *testing.T) {
	good := compressibleData(4096)
	blk, used, err := codec.Compress(3, good)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, uint64(2*len(good)))
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(good), adler32.Checksum(good))
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(good), 0xDEADBEEF)
	msg = wire.AppendMsgEnd(msg)

	o := DefaultOptions()
	o.Parallelism = 4
	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, o)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(good))
	if _, err := io.ReadFull(e, got); err != nil {
		t.Fatalf("good group not delivered: %v", err)
	}
	if !bytes.Equal(got, good) {
		t.Fatal("good group corrupted")
	}
	if _, err := e.Read(make([]byte, 1)); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum after the good group", err)
	}
}

// TestParallelCloseUnblocks makes sure Close aborts a parallel receive
// pipeline whose consumer is genuinely blocked mid-message: the peer sends
// one group of a stream message and then goes silent, so the reader is
// parked on the decoded queue when Close lands.
func TestParallelCloseUnblocks(t *testing.T) {
	o := DefaultOptions()
	o.Parallelism = 4
	c1, c2 := net.Pipe()
	e, err := New(c2, o)
	if err != nil {
		t.Fatal(err)
	}
	raw := compressibleData(4096)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, wire.UnknownTotal)
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	go c1.Write(msg) // one group, then silence — the message never ends

	buf := make([]byte, len(raw))
	if _, err := io.ReadFull(e, buf); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := e.Read(buf)
		readErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the reader park on the pipeline
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if err != ErrClosed {
			t.Fatalf("blocked Read returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read still blocked after Close")
	}
}

// warmWorkerPool starts the shared pool's workers, which are
// process-lifetime and so not part of any test's goroutine accounting.
func warmWorkerPool() {
	warmed := make(chan struct{})
	DefaultWorkerPool().Submit(func() { close(warmed) })
	<-warmed
}

// blockedWriter holds every Write until release is closed.
type blockedWriter struct {
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestParallelCloseFullWindow: a ReceiveMessage stuck delivering its first
// group stops taking groups, so the reception goroutine fills the
// Parallelism window and waits. Close must end the receive with ErrClosed
// and leave no goroutine behind.
func TestParallelCloseFullWindow(t *testing.T) {
	o := DefaultOptions()
	o.Parallelism = 4
	raw := compressibleData(4096)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	msg = wire.AppendStreamHeader(msg, wire.UnknownTotal)
	for i := 0; i < 4*o.Parallelism; i++ {
		msg = wire.AppendGroupBegin(msg, used)
		msg = wire.AppendPacket(msg, blk)
		msg = wire.AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	}

	warmWorkerPool()
	before := runtime.NumGoroutine()
	c1, c2 := net.Pipe()
	e, err := New(c2, o)
	if err != nil {
		t.Fatal(err)
	}
	go c1.Write(msg) // never ends the message; fails once c2 closes
	w := &blockedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	recvErr := make(chan error, 1)
	go func() {
		_, err := e.ReceiveMessage(w)
		recvErr <- err
	}()
	<-w.entered
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := e.loadCur(); st != nil && len(st.order) == cap(st.order) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the receive window never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	select {
	case err := <-recvErr:
		if err != ErrClosed {
			t.Fatalf("ReceiveMessage returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveMessage still blocked after Close")
	}
	c1.Close()
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left after Close", n-before)
	}
}

// TestParallelismSanitize checks the option defaulting contract.
func TestParallelismSanitize(t *testing.T) {
	var o Options
	s, err := o.Effective()
	if err != nil {
		t.Fatal(err)
	}
	if s.Parallelism != DefaultParallelism() {
		t.Fatalf("Parallelism = %d, want default %d", s.Parallelism, DefaultParallelism())
	}
	if d := DefaultParallelism(); d < 1 || d > MaxDefaultParallelism {
		t.Fatalf("DefaultParallelism() = %d out of [1, %d]", d, MaxDefaultParallelism)
	}
	o.Parallelism = 7
	if s, err = o.Effective(); err != nil || s.Parallelism != 7 {
		t.Fatalf("explicit Parallelism not preserved: %d %v", s.Parallelism, err)
	}
}

// TestReceiveMessageErrorReleasesPipeline is the regression test for a
// leak: ReceiveMessage failing mid-stream (corrupt group) must abort the
// reception pipeline, or its goroutines stay blocked on full queues
// forever — unreachable even by Close, since cur is already nil.
func TestReceiveMessageErrorReleasesPipeline(t *testing.T) {
	raw := compressibleData(1000)
	blk, used, err := codec.Compress(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Parallelism = 4

	var msg []byte
	msg = wire.AppendStreamHeader(msg, wire.UnknownTotal)
	msg = wire.AppendGroupBegin(msg, used)
	msg = wire.AppendPacket(msg, blk)
	msg = wire.AppendGroupEnd(msg, len(raw), 0xBAD) // corrupt checksum
	// More frames than the receive queue holds behind the corrupt group,
	// so a leaked reception loop blocks.
	for i := 0; i < DefaultQueueCapacity; i++ {
		msg = wire.AppendGroupBegin(msg, used)
		msg = wire.AppendPacket(msg, blk)
		msg = wire.AppendGroupEnd(msg, len(raw), adler32.Checksum(raw))
	}
	msg = wire.AppendMsgEnd(msg)

	warmWorkerPool()
	before := runtime.NumGoroutine()
	e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReceiveMessage(io.Discard); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	// All pipeline goroutines must wind down without Close's help.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines leaked after ReceiveMessage error", n-before)
	}
}

// pacedLink is a write-only link that accepts rate bytes per second: each
// Write sleeps for its share, so the emission FIFO backs up the way it
// does behind a slow network.
type pacedLink struct{ rate float64 }

func (l pacedLink) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(float64(len(p)) / l.rate * float64(time.Second)))
	return len(p), nil
}

func (pacedLink) Read(p []byte) (int, error) { return 0, io.EOF }

// TestAdaptsAtEveryWindow checks that the controller counts buffers in
// flight ahead of the emission FIFO, not only packets already in it: with
// a window above 1 a short message can have every level chosen before any
// packet reaches the FIFO, and an occupancy of the FIFO alone would read
// empty and send the message uncompressed. A compressible message of the
// bandwidth probe plus three adaptation buffers, sent twice over a
// ~1 MB/s link, must leave level 0 after its first adaptive buffer at
// every window size, and its wire bytes must show it. The first message
// carries the probe prefix; the second finds the connection's link
// estimate already measured (slow), so all of it is adaptive: four
// buffers, of which again only the first may go out at level 0.
func TestAdaptsAtEveryWindow(t *testing.T) {
	const size = DefaultProbeSize + 5*DefaultBufferSize/2 // probe + 200 KB + 200 KB + 100 KB
	msg := compressibleData(size)
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			o := DefaultOptions()
			o.Parallelism = par
			e, err := New(pacedLink{rate: 1e6}, o)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			prev := e.Stats()
			for i := 0; i < 2; i++ {
				if _, err := e.WriteMessage(msg); err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				s := e.Stats()
				if s.ProbeBypasses != prev.ProbeBypasses {
					t.Fatalf("message %d: probe took the fast-link bypass on a 1 MB/s link", i)
				}
				var buffers, level0 int64
				for l, n := range s.Controller.LevelCount {
					n -= prev.Controller.LevelCount[l]
					buffers += n
					if l == 0 {
						level0 = n
					}
				}
				probe, want := int64(DefaultProbeSize), int64(3)
				if i > 0 {
					probe, want = 0, 4 // 200 + 200 + 200 + 156 KB
				}
				if buffers != want {
					t.Fatalf("message %d: controller chose %d levels, want %d (one per adaptation buffer)", i, buffers, want)
				}
				if level0 > 1 {
					t.Errorf("message %d: %d of %d buffers at level 0 (histogram %v); only the first may be",
						i, level0, want, s.Controller.LevelCount)
				}
				// The probe (if any) and the first buffer go out raw; the
				// other buffers compress at least 2:1.
				raw, wireN := s.RawSent-prev.RawSent, s.WireSent-prev.WireSent
				rest := size - probe - DefaultBufferSize
				if limit := raw - rest/2; wireN >= limit {
					t.Errorf("message %d: %d wire bytes for %d raw, want < %d", i, wireN, raw, limit)
				}
				prev = s
			}
		})
	}
}

// TestPipelineWritesPerBuffer pins the send step: the pipeline writes each
// framed buffer with one Write, the stream header riding with the first,
// so a message of k adaptation buffers costs at most k+1 Writes (MsgEnd
// may go alone) on a slow link where every buffer takes the pipeline. A
// Write per packet frame would make about 25 per buffer. The bytes must
// still decode to the message.
func TestPipelineWritesPerBuffer(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, k := range []int{3, 8} {
			t.Run(fmt.Sprintf("parallelism%d/buffers%d", par, k), func(t *testing.T) {
				l := &countedLink{meteredLink: newMeteredLink(1e6, 0)}
				o := DefaultOptions()
				o.Clock = l.clk
				o.DisableProbe = true
				o.Parallelism = par
				e, err := New(l, o)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				msg := compressibleData(k * DefaultBufferSize)
				if _, err := e.WriteMessage(msg); err != nil {
					t.Fatal(err)
				}
				if l.writes > k+1 {
					t.Fatalf("%d Writes for a %d-buffer message, want at most %d", l.writes, k, k+1)
				}
				r, err := New(&rawConn{Reader: &l.sent}, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				var got bytes.Buffer
				if _, err := r.ReceiveMessage(&got); err != nil || !bytes.Equal(got.Bytes(), msg) {
					t.Fatalf("received %d bytes (%v), want the %d sent", got.Len(), err, len(msg))
				}
			})
		}
	}
}
