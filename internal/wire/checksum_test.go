package wire

import (
	"bytes"
	"fmt"
	"hash/adler32"
	"math/rand"
	"testing"
)

// TestChecksumMatchesStdlib compares the SWAR kernel with hash/adler32 for
// every length up to 4096 at every start offset within a word, so each
// block boundary and each tail length is hit at each alignment.
func TestChecksumMatchesStdlib(t *testing.T) {
	buf := make([]byte, 4096+8)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 4096; n++ {
			p := buf[off : off+n]
			if got, want := Checksum(p), adler32.Checksum(p); got != want {
				t.Fatalf("offset %d length %d: Checksum = %#08x, hash/adler32 = %#08x", off, n, got, want)
			}
		}
	}
}

// TestChecksumAllOnes is the overflow worst case: every byte 0xFF drives
// every lane and both sums to their maxima, over many blocks and moduli.
func TestChecksumAllOnes(t *testing.T) {
	p := bytes.Repeat([]byte{0xFF}, 4<<20)
	for _, n := range []int{len(p), len(p) - 1, checksumBlockBytes, checksumBlockBytes + 7, checksumReduceBlocks * checksumBlockBytes, 5552, 5553} {
		if got, want := Checksum(p[:n]), adler32.Checksum(p[:n]); got != want {
			t.Fatalf("%d bytes of 0xFF: Checksum = %#08x, hash/adler32 = %#08x", n, got, want)
		}
	}
}

// TestChecksumChained checks that updateChecksum continues a running sum:
// splitting the input anywhere gives the one-shot result.
func TestChecksumChained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := make([]byte, 64<<10)
	rng.Read(p)
	want := adler32.Checksum(p)
	for i := 0; i < 200; i++ {
		sum := uint32(1)
		rest := p
		for len(rest) > 0 {
			k := rng.Intn(3 * checksumReduceBlocks * checksumBlockBytes)
			if k > len(rest) {
				k = len(rest)
			}
			sum = updateChecksum(sum, rest[:k])
			rest = rest[k:]
		}
		if sum != want {
			t.Fatalf("chained run %d: %#08x, want %#08x", i, sum, want)
		}
	}
}

// FuzzChecksum checks the kernel against hash/adler32 on arbitrary input,
// whole and split at a fuzzed point.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("adoc"), uint16(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 3000), uint16(2049))
	f.Fuzz(func(t *testing.T, p []byte, split uint16) {
		want := adler32.Checksum(p)
		if got := Checksum(p); got != want {
			t.Fatalf("Checksum = %#08x, hash/adler32 = %#08x", got, want)
		}
		k := int(split) % (len(p) + 1)
		if got := updateChecksum(updateChecksum(1, p[:k]), p[k:]); got != want {
			t.Fatalf("split at %d: %#08x, want %#08x", k, got, want)
		}
	})
}

func BenchmarkChecksum(b *testing.B) {
	for _, size := range []int{8 << 10, 200 << 10} {
		p := make([]byte, size)
		rand.New(rand.NewSource(3)).Read(p)
		b.Run(fmt.Sprintf("%dKB/swar", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				Checksum(p)
			}
		})
		b.Run(fmt.Sprintf("%dKB/stdlib", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				adler32.Checksum(p)
			}
		})
	}
}
