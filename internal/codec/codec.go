// Package codec provides the uniform compression-level abstraction of AdOC
// (paper §2): level 0 is no compression, level 1 is LZF, and levels 2..10
// are DEFLATE levels 1..9 ("for compression level 2 we will use gzip at
// level 1, ..."). A codec compresses one AdOC buffer (the 200 KB adaptation
// unit) into a single self-contained block, so the level can change between
// buffers while keeping the ratio loss against whole-file compression small.
package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Level identifies an AdOC compression level.
//
//	0      raw copy (no compression)
//	1      LZF
//	2..10  DEFLATE levels 1..9
type Level int

// Level bounds, mirroring ADOC_MIN_LEVEL and ADOC_MAX_LEVEL in the C
// library.
const (
	MinLevel Level = 0
	LZF      Level = 1
	MaxLevel Level = 10
)

// ErrBadLevel reports a level outside [MinLevel, MaxLevel].
var ErrBadLevel = errors.New("codec: compression level out of range")

// ErrCorrupt reports a block that does not decompress to its recorded size.
var ErrCorrupt = errors.New("codec: corrupt block")

// Valid reports whether l is a usable compression level.
func (l Level) Valid() bool { return l >= MinLevel && l <= MaxLevel }

// Clamp restricts l to [min, max].
func (l Level) Clamp(min, max Level) Level {
	if l < min {
		return min
	}
	if l > max {
		return max
	}
	return l
}

// String names the level the way the paper does ("none", "lzf", "gzip N").
func (l Level) String() string {
	switch {
	case l == 0:
		return "none"
	case l == 1:
		return "lzf"
	case l >= 2 && l <= 10:
		return fmt.Sprintf("gzip %d", int(l)-1)
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// flateLevel maps an AdOC level (2..10) to a DEFLATE level (1..9).
func flateLevel(l Level) int { return int(l) - 1 }

// flateWriterPools caches one *flate.Writer pool per DEFLATE level; the
// writers carry large internal state (~300 KB) that is worth reusing across
// buffers in the hot compression path.
var flateWriterPools [10]sync.Pool

// flateReaderPool caches flate readers; they are Reset before each use.
var flateReaderPool = sync.Pool{New: func() any { return flate.NewReader(nil) }}

func getFlateWriter(lvl int, w io.Writer) *flate.Writer {
	p := &flateWriterPools[lvl]
	if fw, ok := p.Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw
	}
	fw, err := flate.NewWriter(w, lvl)
	if err != nil {
		// Levels are validated before reaching here; a failure means a
		// programming error, not bad input.
		panic("codec: flate.NewWriter: " + err.Error())
	}
	return fw
}

func putFlateWriter(lvl int, fw *flate.Writer) { flateWriterPools[lvl].Put(fw) }

// Compress compresses src at the requested level and returns the block and
// the level actually used. If compression would expand the data (possible
// for random or already-compressed payloads) the raw bytes are returned with
// level 0, mirroring AdOC's per-packet expansion check: the wire never
// carries a block larger than its raw form plus framing.
func Compress(level Level, src []byte) ([]byte, Level, error) {
	return CompressAppend(nil, level, src)
}

// sliceWriter appends to a caller-provided slice, letting the pooled flate
// writers emit into reusable scratch instead of a fresh bytes.Buffer.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// CompressAppend is Compress writing the block into scratch's backing array
// when capacity allows, so each compression worker can reuse one scratch
// buffer across blocks instead of allocating per buffer. The returned block
// may alias scratch or src; it is valid only until scratch's next use.
// A block that would not shrink ships raw at level 0, so the wire never
// carries a block larger than its raw form plus framing.
func CompressAppend(scratch []byte, level Level, src []byte) ([]byte, Level, error) {
	if !level.Valid() {
		return nil, 0, ErrBadLevel
	}
	if level == MinLevel || len(src) == 0 {
		return src, MinLevel, nil
	}
	out, err := codecs[level.CodecID()].Compress(scratch, level, src)
	if errors.Is(err, errNoGain) {
		return src, MinLevel, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(out) >= len(src) {
		return src, MinLevel, nil
	}
	return out, level, nil
}

// Decompress expands a block produced by Compress. rawLen is the original
// size recorded in the wire frame; the output is exactly rawLen bytes. Any
// failure caused by the block's content (truncation, garbage, a size
// mismatch) wraps ErrCorrupt; ErrBadLevel is reserved for levels outside
// the ladder.
func Decompress(level Level, block []byte, rawLen int) ([]byte, error) {
	if !level.Valid() {
		return nil, ErrBadLevel
	}
	if rawLen < 0 {
		return nil, fmt.Errorf("%w: negative raw length %d", ErrCorrupt, rawLen)
	}
	return codecs[level.CodecID()].Decompress(block, rawLen)
}

// deflateCodec serves levels 2..10 with pooled flate writers and readers.
type deflateCodec struct{}

func (deflateCodec) Compress(scratch []byte, level Level, src []byte) ([]byte, error) {
	if cap(scratch) < len(src) {
		// Match the compressed-fits-in-raw common case with one upfront
		// allocation instead of append growth.
		scratch = make([]byte, 0, len(src))
	}
	w := sliceWriter{buf: scratch[:0]}
	fw := getFlateWriter(flateLevel(level), &w)
	_, werr := fw.Write(src)
	cerr := fw.Close()
	putFlateWriter(flateLevel(level), fw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return w.buf, nil
}

func (deflateCodec) Decompress(block []byte, rawLen int) ([]byte, error) {
	fr := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(block), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, fmt.Errorf("codec: %w: %v", ErrCorrupt, err)
	}
	// The block must end exactly here: no trailing data beyond rawLen, and
	// a proper final-block marker (a truncated stream that happened to
	// carry rawLen bytes reports ErrUnexpectedEOF instead of io.EOF).
	var tail [1]byte
	for {
		n, terr := fr.Read(tail[:])
		if n != 0 {
			return nil, ErrCorrupt
		}
		if terr == io.EOF {
			return out, nil
		}
		if terr != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, terr)
		}
	}
}

// Ratio returns raw/compressed, the compression ratio the paper's Table 1
// reports (larger is better; 1.0 means no gain).
func Ratio(rawLen, compLen int) float64 {
	if compLen == 0 {
		return 0
	}
	return float64(rawLen) / float64(compLen)
}
