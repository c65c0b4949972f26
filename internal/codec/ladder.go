package codec

import (
	"fmt"

	"adoc/internal/lzf"
)

// ID identifies one codec implementation. The wire never carries IDs
// directly — groups are stamped with a Level, and the level→codec mapping
// below is fixed — but the adocnet handshake carries a mask with one bit
// per ID, which every peer checks for the full ladder.
type ID uint8

// Codec identities, one per rung of the level ladder.
const (
	// IDRaw is the no-op copy codec behind level 0.
	IDRaw ID = 0
	// IDLZF is the LZF block codec behind level 1.
	IDLZF ID = 1
	// IDDeflate is the DEFLATE codec behind levels 2..10.
	IDDeflate ID = 2
	// ID 3 (mask bit 1 << 3) was a dictionary codec in earlier builds; it
	// is never advertised and reserved: never reuse it.
)

// Mask is a codec set, one bit per ID — the unit the adocnet handshake
// carries. This build always offers LegacyMask and requires it of its
// peer.
type Mask uint16

// Mask values.
const (
	// MaskRaw, MaskLZF and MaskDeflate are the single-codec masks.
	MaskRaw     Mask = 1 << IDRaw
	MaskLZF     Mask = 1 << IDLZF
	MaskDeflate Mask = 1 << IDDeflate

	// LegacyMask is the paper's fixed level ladder: raw, LZF and DEFLATE.
	// Every build speaks it, and a handshake payload too short to carry a
	// mask decodes as this.
	LegacyMask = MaskRaw | MaskLZF | MaskDeflate
)

// CodecID maps a level to the codec that serves it: 0 → raw, 1 → LZF,
// 2..10 → DEFLATE. Out-of-range levels map to raw, which every decoder
// rejects earlier via Level.Valid.
func (l Level) CodecID() ID {
	switch {
	case l == MinLevel:
		return IDRaw
	case l == LZF:
		return IDLZF
	case l >= 2 && l <= MaxLevel:
		return IDDeflate
	default:
		return IDRaw
	}
}

// errNoGain is a codec's way of saying "compression would not shrink this
// block"; CompressAppend answers it with a raw level-0 block, keeping the
// wire never larger than the raw form.
var errNoGain = fmt.Errorf("codec: no compression gain")

// Codec is one block-compression implementation. A codec compresses one
// AdOC adaptation buffer into a single self-contained block and expands it
// back; the engine handles framing, checksums and level selection around
// it.
type Codec interface {
	// Compress produces the block for src at the given AdOC level (one of
	// the levels this codec serves). scratch may be reused for the result;
	// the returned block may alias scratch or src. Returning errNoGain
	// (wrapped or not) tells the caller to ship the block raw instead.
	Compress(scratch []byte, level Level, src []byte) ([]byte, error)
	// Decompress expands a block back to exactly rawLen bytes. Any failure
	// caused by the block's content must wrap ErrCorrupt.
	Decompress(block []byte, rawLen int) ([]byte, error)
}

// codecs is the fixed ladder, indexed by Level.CodecID.
var codecs = [...]Codec{IDRaw: rawCodec{}, IDLZF: lzfCodec{}, IDDeflate: deflateCodec{}}

// rawCodec is the level-0 identity codec, so the ladder treats "no
// compression" uniformly with the real codecs.
type rawCodec struct{}

func (rawCodec) Compress(_ []byte, _ Level, src []byte) ([]byte, error) { return src, nil }

func (rawCodec) Decompress(block []byte, rawLen int) ([]byte, error) {
	if len(block) != rawLen {
		return nil, fmt.Errorf("%w: raw block is %d bytes, recorded %d", ErrCorrupt, len(block), rawLen)
	}
	return block, nil
}

// lzfCodec is the LZF block codec behind level 1.
type lzfCodec struct{}

func (lzfCodec) Compress(scratch []byte, _ Level, src []byte) ([]byte, error) {
	out, ok := lzf.EncodeTo(scratch, src)
	if !ok {
		return nil, errNoGain
	}
	return out, nil
}

func (lzfCodec) Decompress(block []byte, rawLen int) ([]byte, error) {
	out, err := lzf.Decode(block, rawLen)
	if err != nil {
		// Every LZF decode failure means the block does not expand to its
		// recorded size — corrupt by this package's definition.
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}
