package core

import (
	"bytes"
	"io"
	"testing"

	"adoc/internal/codec"
)

// readChunks drains want bytes from e via ReadChunk, copying each span
// out before asking for the next (the documented validity contract).
func readChunks(t *testing.T, e *Engine, want int) []byte {
	t.Helper()
	got := make([]byte, 0, want)
	for len(got) < want {
		chunk, err := e.ReadChunk()
		if err != nil {
			t.Fatalf("ReadChunk after %d/%d bytes: %v", len(got), want, err)
		}
		got = append(got, chunk...)
	}
	return got
}

// TestReadChunkDelivery checks that ReadChunk reproduces the byte stream
// exactly — across stream messages (multi-group, forced compression) and
// small messages — at in-flight windows of 1 and 4.
func TestReadChunkDelivery(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[par], func(t *testing.T) {
			opts := smallPipelineOptions()
			opts.Parallelism = par
			opts.MinLevel = codec.LZF // force the stream path and compression
			e1, e2 := pipePair(t, opts)

			payload := compressibleData(100 * 1024) // ~13 groups of 8 KB
			errCh := make(chan error, 1)
			go func() {
				_, err := e1.WriteMessage(payload)
				errCh <- err
			}()
			got := readChunks(t, e2, len(payload))
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("stream message bytes differ through ReadChunk")
			}

			// A small message next: ReadChunk returns its payload whole.
			small := []byte("tiny control frame")
			go func() {
				_, _, err := e1.writeSmall(small)
				errCh <- err
			}()
			chunk, err := e2.ReadChunk()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chunk, small) {
				t.Fatalf("small message = %q, want %q", chunk, small)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadChunkAfterPartialRead checks the two consumption styles
// compose: a partial Read leaves leftovers that the next ReadChunk must
// deliver before touching the wire.
func TestReadChunkAfterPartialRead(t *testing.T) {
	opts := smallPipelineOptions()
	opts.MinLevel = codec.LZF
	e1, e2 := pipePair(t, opts)

	payload := compressibleData(30 * 1024)
	errCh := make(chan error, 1)
	go func() {
		_, err := e1.WriteMessage(payload)
		errCh <- err
	}()

	head := make([]byte, 100)
	if _, err := io.ReadFull(e2, head); err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), head...)
	got = append(got, readChunks(t, e2, len(payload)-len(head))...)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bytes differ when mixing Read and ReadChunk")
	}
}
