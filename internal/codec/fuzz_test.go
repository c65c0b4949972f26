package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"testing"
)

// FuzzCodecRoundTrip fuzzes compress/decompress across every registered
// codec and level. Properties:
//
//   - Round-trip identity: Decompress(Compress(data)) == data at every
//     level, whichever codec the level resolved to (including the no-gain
//     fallback to raw).
//   - Corruption safety: decoding a truncated or bit-flipped block either
//     still yields rawLen bytes (a flip that lands in literal bytes is
//     undetectable at this layer — the group checksum above catches it) or
//     fails with an error wrapping ErrCorrupt. It never panics and never
//     leaks a codec-internal error type.
//   - Hostile blocks: arbitrary bytes fed straight to Decompress at every
//     level and a range of claimed sizes must not panic, and must fail
//     with ErrCorrupt when they fail.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed corpus: empty, 1-byte, short text, repetitive, and
	// already-compressed inputs (DEFLATE output fed back in).
	var pre bytes.Buffer
	fw, _ := flate.NewWriter(&pre, 9)
	fw.Write(bytes.Repeat([]byte("already compressed payload "), 64))
	fw.Close()
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x00}, uint8(1))
	f.Add([]byte("a"), uint8(10))
	f.Add([]byte("hello, adaptive online compression"), uint8(6))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 4096), uint8(1))
	f.Add(pre.Bytes(), uint8(5))

	f.Fuzz(func(t *testing.T, data []byte, lvl uint8) {
		level := Level(int(lvl) % (int(MaxLevel) + 1))

		block, used, err := Compress(level, data)
		if err != nil {
			t.Fatalf("Compress(%d, %d bytes): %v", level, len(data), err)
		}
		if !used.Valid() || used.CodecID() != level.CodecID() && used != MinLevel {
			t.Fatalf("Compress used level %d for requested %d", used, level)
		}
		if used != MinLevel && len(block) >= len(data) {
			t.Fatalf("level %d block is %d bytes for %d raw — expansion must fall back to raw",
				used, len(block), len(data))
		}

		out, err := Decompress(used, block, len(data))
		if err != nil {
			t.Fatalf("Decompress(%d): %v", used, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip lost data at level %d (used %d): %d bytes in, %d out",
				level, used, len(data), len(out))
		}

		// Truncation must fail cleanly — and with ErrCorrupt.
		if len(block) > 0 {
			if _, err := Decompress(used, block[:len(block)-1], len(data)); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated block: err = %v, want ErrCorrupt", err)
			} else if err == nil && used != MinLevel {
				// A compressed stream one byte short can never carry the
				// full raw size plus a clean terminator.
				t.Fatalf("truncated level-%d block decoded without error", used)
			}
		}

		// A single bit flip must never panic, and must report ErrCorrupt
		// when it reports anything.
		if len(block) > 0 {
			flipped := append([]byte(nil), block...)
			flipped[len(flipped)/2] ^= 0x40
			out, err := Decompress(used, flipped, len(data))
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped block: err = %v, want ErrCorrupt", err)
			}
			if err == nil && len(out) != len(data) {
				t.Fatalf("flipped block decoded to %d bytes, recorded %d", len(out), len(data))
			}
		}

		// The input itself as a hostile block, at every level and a spread
		// of claimed raw sizes.
		for l := MinLevel; l <= MaxLevel; l++ {
			for _, rawLen := range []int{0, 1, len(data), 2*len(data) + 1} {
				out, err := Decompress(l, data, rawLen)
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("hostile block at level %d rawLen %d: err = %v, want ErrCorrupt", l, rawLen, err)
				}
				if err == nil && len(out) != rawLen {
					t.Fatalf("hostile block at level %d decoded to %d bytes, claimed %d", l, len(out), rawLen)
				}
			}
		}
	})
}
