package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"adoc/internal/codec"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// receiveAPIs drain an engine to its first error through each public
// receive API, returning the bytes delivered before it.
var receiveAPIs = []struct {
	name string
	recv func(e *Engine) ([]byte, error)
}{
	{"Read/1B", readAllWith(1)},
	{"Read/1MiB", readAllWith(1 << 20)},
	{"ReadChunk", func(e *Engine) ([]byte, error) {
		var got []byte
		for {
			chunk, err := e.ReadChunk()
			if err != nil {
				return got, err
			}
			got = append(got, chunk...)
		}
	}},
	{"ReceiveMessage", func(e *Engine) ([]byte, error) {
		var got bytes.Buffer
		for {
			if _, err := e.ReceiveMessage(&got); err != nil {
				return got.Bytes(), err
			}
		}
	}},
}

func readAllWith(size int) func(e *Engine) ([]byte, error) {
	return func(e *Engine) ([]byte, error) {
		var got []byte
		buf := make([]byte, size)
		for {
			n, err := e.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return got, err
			}
		}
	}
}

// receiveFrom runs recv over an engine reading the hand-made stream data.
func receiveFrom(t testing.TB, data []byte, recv func(*Engine) ([]byte, error)) ([]byte, error) {
	return receiveWith(t, DefaultOptions(), data, recv)
}

// pipelineReceiver is a receiver whose one-byte buffer sends every stream
// message declaring more than a byte through the receive pipeline.
func pipelineReceiver() Options {
	o := DefaultOptions()
	o.PacketSize, o.BufferSize = 1, 1
	return o
}

// receiveWith is receiveFrom on an engine with options o.
func receiveWith(t testing.TB, o Options, data []byte, recv func(*Engine) ([]byte, error)) ([]byte, error) {
	e, err := New(&rawConn{Reader: bytes.NewReader(data)}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	return recv(e)
}

// TestSmallPayloadBoundedAlloc: an 8-byte small-message header announcing
// wire.MaxGroupRaw must not cost the receiver that much memory up front.
// The peer sends 64 KiB and hangs up; every receive API must report
// io.ErrUnexpectedEOF having allocated about what arrived.
func TestSmallPayloadBoundedAlloc(t *testing.T) {
	msg := wire.AppendMsgHeader(nil, wire.KindSmall)
	msg = binary.BigEndian.AppendUint32(msg, wire.MaxGroupRaw)
	msg = append(msg, make([]byte, 64<<10)...)
	for _, api := range receiveAPIs {
		t.Run(api.name, func(t *testing.T) {
			e, err := New(&rawConn{Reader: bytes.NewReader(msg)}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := api.recv(e)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 0 {
				t.Fatalf("got %d bytes, err %v; want none and io.ErrUnexpectedEOF", len(got), err)
			}
			// One growth step plus the 1 MiB Read buffer, with slack; an
			// up-front allocation of the announced size is 16 MiB.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Fatalf("allocated %d bytes for a small message that delivered 64 KiB", alloc)
			}
		})
	}
}

// TestLargeSmallPayloadEveryAPI sends small messages on both sides of
// maxReusedSmallBuf and past one growth step, plus an empty one, and
// checks every receive API delivers them intact.
func TestLargeSmallPayloadEveryAPI(t *testing.T) {
	var stream, want []byte
	for _, n := range []int{100, maxReusedSmallBuf, maxReusedSmallBuf + 1, 0, smallReadStep + 12345} {
		p := incompressibleData(n, int64(n))
		stream = wire.AppendSmall(stream, p)
		want = append(want, p...)
	}
	for _, api := range receiveAPIs {
		t.Run(api.name, func(t *testing.T) {
			got, err := receiveFrom(t, stream, api.recv)
			if err != io.EOF {
				t.Fatalf("err = %v, want io.EOF", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("delivered %d bytes, want %d identical", len(got), len(want))
			}
		})
	}
}

// errClass names the typed failure err belongs to, or "" for an error the
// receive path must never produce from peer bytes alone.
func errClass(err error) string {
	if err == io.EOF {
		return "EOF"
	}
	for _, c := range []error{
		io.ErrUnexpectedEOF,
		wire.ErrBadMagic, wire.ErrBadVersion, wire.ErrBadKind,
		wire.ErrBadFrame, wire.ErrTooBig, wire.ErrChecksum,
		codec.ErrCorrupt, codec.ErrBadLevel,
	} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return ""
}

// FuzzEngineReceive is a differential fuzz target over the receive step:
// arbitrary bytes go through Read (1-byte and 1 MiB buffers), ReadChunk
// and ReceiveMessage, and all of them must deliver the same bytes up to
// the first error and then fail with the same typed error class — never
// a panic, a hang, or an untyped error. A receiver that sends every
// stream message through the receive pipeline must agree with the
// default one, which reads messages of up to a buffer on the caller's
// goroutine.
func FuzzEngineReceive(f *testing.F) {
	var sent bytes.Buffer
	sender, err := New(&rawConn{Reader: bytes.NewReader(nil), w: &sent}, smallPipelineOptions())
	if err != nil {
		f.Fatal(err)
	}
	defer sender.Close()
	encode := func(send func() error) []byte {
		sent.Reset()
		if err := send(); err != nil {
			f.Fatal(err)
		}
		return bytes.Clone(sent.Bytes())
	}
	small := wire.AppendSmall(nil, []byte("a small message"))
	lzf := encode(func() error {
		_, err := sender.WriteMessageLevels(compressibleData(20<<10), codec.LZF, codec.LZF)
		return err
	})
	deflate := encode(func() error {
		_, err := sender.WriteMessageLevels(compressibleData(10<<10), 2, codec.MaxLevel)
		return err
	})
	emptyGroup := wire.AppendStreamHeader(nil, 0)
	emptyGroup = wire.AppendGroupBegin(emptyGroup, codec.MinLevel)
	emptyGroup = wire.AppendGroupEnd(emptyGroup, 0, adler32.Checksum(nil))
	emptyGroup = wire.AppendMsgEnd(emptyGroup)

	f.Add(small)
	f.Add(wire.AppendSmall(nil, nil))
	f.Add(lzf)
	f.Add(deflate)
	f.Add(emptyGroup)
	f.Add(bytes.Join([][]byte{small, lzf, wire.AppendSmall(nil, nil), emptyGroup, deflate, small}, nil))
	f.Add(lzf[:len(lzf)/2])

	// One-buffer messages: groups carrying more than the header declared,
	// a header declaring more than the groups carry, two groups, and a
	// group that never ends.
	raw := compressibleData(3000)
	group := wire.AppendGroup(nil, codec.MinLevel, raw, 1024, len(raw), adler32.Checksum(raw))
	oneBuffer := func(total uint64, groups int, end bool) []byte {
		msg := wire.AppendStreamHeader(nil, total)
		for range groups {
			msg = append(msg, group...)
		}
		if end {
			msg = wire.AppendMsgEnd(msg)
		}
		return msg
	}
	f.Add(oneBuffer(uint64(len(raw)), 2, true))
	f.Add(oneBuffer(uint64(4*len(raw)), 1, true))
	f.Add(oneBuffer(uint64(2*len(raw)), 2, true))
	endless := wire.AppendGroupBegin(wire.AppendStreamHeader(nil, 4096), codec.MinLevel)
	for range 8 {
		endless = wire.AppendPacket(endless, raw[:1024])
	}
	f.Add(endless)

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := receiveFrom(t, data, receiveAPIs[2].recv) // ReadChunk
		if errClass(refErr) == "" {
			t.Fatalf("ReadChunk: untyped error %v", refErr)
		}
		for _, api := range receiveAPIs {
			if api.name == "Read/1B" && len(ref) > 256<<10 {
				continue // a byte at a time through megabytes is too slow to fuzz
			}
			got, err := receiveFrom(t, data, api.recv)
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s delivered %d bytes, ReadChunk %d (or different bytes)", api.name, len(got), len(ref))
			}
			if errClass(err) != errClass(refErr) {
				t.Fatalf("%s failed with %v, ReadChunk with %v", api.name, err, refErr)
			}
		}
		got, err := receiveWith(t, pipelineReceiver(), data, receiveAPIs[2].recv)
		if !bytes.Equal(got, ref) {
			t.Fatalf("pipeline receiver delivered %d bytes, one-buffer receiver %d (or different bytes)", len(got), len(ref))
		}
		if errClass(err) != errClass(refErr) {
			t.Fatalf("pipeline receiver failed with %v, one-buffer receiver with %v", err, refErr)
		}
	})
}

// TestSmallMessageTraceEveryAPI: a small message records one receive and
// one deliver span, pending until the consumer adopts the sender's trace
// context, whichever API received it.
func TestSmallMessageTraceEveryAPI(t *testing.T) {
	payload := []byte("a traced control message")
	for _, api := range receiveAPIs {
		t.Run(api.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := obs.NewFlowTracer(obs.FlowTracerConfig{SampleEvery: 1, Metrics: reg})
			o := DefaultOptions()
			o.Metrics, o.FlowTracer = reg, tr
			e, err := New(&rawConn{Reader: bytes.NewReader(wire.AppendSmall(nil, payload))}, o)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got, err := api.recv(e); err != io.EOF || !bytes.Equal(got, payload) {
				t.Fatalf("got %q, %v; want the payload, then io.EOF", got, err)
			}
			tc := tr.SampleNext()
			e.AdoptRecvTrace(tc)
			if c := spanCounts(tr.Spans(tc.ID, 0)); c[obs.StageReceive] != 1 || c[obs.StageDeliver] != 1 {
				t.Fatalf("spans %v, want one receive and one deliver", c)
			}
		})
	}
}

// failAfterSpans is a ReceiveMessage sink that accepts spans spans, then
// fails every Write with err.
type failAfterSpans struct {
	spans int
	err   error
}

func (w *failAfterSpans) Write(p []byte) (int, error) {
	if w.spans == 0 {
		return 0, w.err
	}
	w.spans--
	return len(p), nil
}

// TestAbandonedReceiveFailsClosed: a ReceiveMessage whose sink fails
// part-way through a stream message leaves the rest of the message
// unread. The next receive must neither read it as a message header
// ("wire: bad magic") nor share the reader with a reception goroutine
// still reading it (a data race under -race): every receive returns
// ErrAbandoned, wrapping the sink's error, until Close, and no goroutine
// outlives Close.
func TestAbandonedReceiveFailsClosed(t *testing.T) {
	o := smallPipelineOptions()
	o.Parallelism = 2
	for _, tc := range []struct {
		name  string
		size  int
		spans int
	}{
		{"pipeline", 64 * o.BufferSize, 2},
		{"one buffer", o.BufferSize, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warmWorkerPool()
			before := runtime.NumGoroutine()
			c1, c2 := net.Pipe()
			e1, err := New(c1, o)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := New(c2, o)
			if err != nil {
				t.Fatal(err)
			}
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				e1.WriteMessage(compressibleData(tc.size)) // fails once the pipe closes
			}()
			cause := errors.New("sink full")
			if _, err := e2.ReceiveMessage(&failAfterSpans{spans: tc.spans, err: cause}); !errors.Is(err, cause) {
				t.Fatalf("ReceiveMessage = %v, want the sink's error", err)
			}
			// A receive that reads the pipe again fails by this deadline
			// instead of waiting for bytes the sender never sends.
			c2.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1024)
			for _, api := range []struct {
				name string
				recv func() error
			}{
				{"ReceiveMessage", func() error { _, err := e2.ReceiveMessage(io.Discard); return err }},
				{"Read", func() error { _, err := e2.Read(buf); return err }},
				{"ReadChunk", func() error { _, err := e2.ReadChunk(); return err }},
				{"ReceiveMessage again", func() error { _, err := e2.ReceiveMessage(io.Discard); return err }},
			} {
				if err := api.recv(); !errors.Is(err, ErrAbandoned) || !errors.Is(err, cause) {
					t.Fatalf("%s after the abandoned message = %v, want ErrAbandoned wrapping the sink's error", api.name, err)
				}
			}
			e2.Close()
			e1.Close()
			if _, err := e2.ReceiveMessage(io.Discard); err != ErrClosed {
				t.Fatalf("ReceiveMessage after Close = %v, want ErrClosed", err)
			}
			<-sent
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines left after Close", n-before)
			}
		})
	}
}
