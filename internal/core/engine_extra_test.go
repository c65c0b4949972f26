package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"testing/quick"

	"adoc/internal/adapt"
	"adoc/internal/codec"
)

// TestQuickRoundtripSizesLevels is the engine's end-to-end property test:
// any payload, any level bounds, any of three data shapes — the receiver
// sees exactly the sent bytes.
func TestQuickRoundtripSizesLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed int64, sizeSel uint16, minSel, maxSel uint8, shape uint8) bool {
		size := int(sizeSel) * 7 % 50000
		min := codec.Level(minSel % 11)
		max := codec.Level(maxSel % 11)
		if min > max {
			min, max = max, min
		}
		var data []byte
		switch shape % 3 {
		case 0:
			data = compressibleData(size)
		case 1:
			data = incompressibleData(size, seed)
		default:
			data = bytes.Repeat([]byte{byte(seed)}, size)
		}
		e1, e2 := quickPair()
		defer e1.Close()
		defer e2.Close()
		errCh := make(chan error, 1)
		go func() {
			_, err := e1.WriteMessageLevels(data, min, max)
			errCh <- err
		}()
		got := make([]byte, len(data))
		if len(data) > 0 {
			if _, err := io.ReadFull(e2, got); err != nil {
				return false
			}
		}
		if err := <-errCh; err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// quickPair builds an engine pair without a testing.T (for quick.Check).
func quickPair() (*Engine, *Engine) {
	c1, c2 := net.Pipe()
	o := smallPipelineOptions()
	e1, _ := New(c1, o)
	e2, _ := New(c2, o)
	return e1, e2
}

// failingReader returns an error mid-stream.
type failingReader struct {
	data []byte
	off  int
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, f.err
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func TestSendMessageSourceError(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	cause := errors.New("disk failure")
	src := &failingReader{data: compressibleData(20 * 1024), err: cause}
	go func() {
		// Consume whatever arrives so the sender is not blocked; the
		// stream will end with a wire error.
		buf := make([]byte, 4096)
		for {
			if _, err := e2.Read(buf); err != nil {
				return
			}
		}
	}()
	_, _, err := e1.SendMessage(src, 100*1024) // claims more than the source has
	if err == nil {
		t.Fatal("source error not propagated")
	}
}

func TestSendMessageSizeTruncatedSource(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			o := smallPipelineOptions()
			o.Parallelism = par
			e1, e2 := pipePair(t, o)
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := e2.Read(buf); err != nil {
						return
					}
				}
			}()
			// Source EOFs before the declared size: must error, not hang,
			// and must not report the declared size as sent.
			const have = 10 * 1024
			raw, _, err := e1.SendMessage(bytes.NewReader(compressibleData(have)), 64*1024)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
			}
			if raw > have {
				t.Errorf("raw = %d, want at most the %d bytes the source held", raw, have)
			}
		})
	}
}

func TestTraceCallbacksFire(t *testing.T) {
	o := smallPipelineOptions()
	var groups, levelChanges int
	o.Trace.OnGroupSent = func(level codec.Level, rawLen, wireLen, queueLen int) { groups++ }
	o.Trace.OnTransition = func(tr adapt.Transition) {
		if tr.From == tr.To {
			t.Errorf("transition %d -> %d does not change the level", tr.From, tr.To)
		}
		levelChanges++
	}
	e1, e2 := pipePair(t, o)
	data := compressibleData(120 * 1024)
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
	if groups == 0 {
		t.Fatal("OnGroupSent never fired")
	}
	if levelChanges == 0 {
		t.Fatal("OnTransition never fired on a compressible pipeline transfer")
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	e1, e2 := pipePair(t, DefaultOptions())
	e2.Close()
	// A small write may buffer into the pipe; a big pipelined write must
	// surface the broken link.
	_, err := e1.WriteMessage(compressibleData(1 << 20))
	if err == nil {
		t.Fatal("write into closed peer succeeded")
	}
}

func TestInterleavedSmallAndStreamMessages(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	var want []byte
	go func() {
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				e1.WriteMessage(compressibleData(1000)) // small path
			} else {
				e1.WriteMessage(compressibleData(30 * 1024)) // pipeline
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			want = append(want, compressibleData(1000)...)
		} else {
			want = append(want, compressibleData(30*1024)...)
		}
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(e2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("interleaved message kinds corrupted the byte stream")
	}
}

func TestHugeSingleMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("large transfer")
	}
	e1, e2 := pipePair(t, smallPipelineOptions())
	data := compressibleData(8 << 20)
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
		t.Fatal("8 MB roundtrip mismatch")
	}
}

func TestReceiveMessagePartialWriterError(t *testing.T) {
	e1, e2 := pipePair(t, smallPipelineOptions())
	go e1.WriteMessage(compressibleData(100 * 1024))
	cause := errors.New("target full")
	fw := &failingWriter{failAfter: 10 * 1024, err: cause}
	if _, err := e2.ReceiveMessage(fw); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want sink failure", err)
	}
}

type failingWriter struct {
	n         int
	failAfter int
	err       error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > f.failAfter {
		return 0, f.err
	}
	return len(p), nil
}

func TestTinyBufferAndPacketSizes(t *testing.T) {
	o := DefaultOptions()
	o.PacketSize = 64
	o.BufferSize = 256
	o.SmallThreshold = 128
	o.DisableProbe = true
	e1, e2 := pipePair(t, o)
	data := compressibleData(10 * 1024)
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
		t.Fatal("tiny-geometry roundtrip mismatch")
	}
}
