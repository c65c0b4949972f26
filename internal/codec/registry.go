package codec

import (
	"fmt"
	"strings"
	"sync"

	"adoc/internal/lzf"
)

// ID identifies one codec implementation. The wire never carries IDs
// directly — groups are stamped with a Level, and the level→codec mapping
// below is fixed — but IDs are what handshake capability masks advertise:
// a peer that cannot run DEFLATE clears one bit instead of inventing a new
// level numbering.
type ID uint8

// Registered codec identities.
const (
	// IDRaw is the no-op copy codec behind level 0. Every peer speaks it;
	// masks that omit it are rejected at negotiation time.
	IDRaw ID = 0
	// IDLZF is the LZF block codec behind level 1.
	IDLZF ID = 1
	// IDDeflate is the DEFLATE codec behind levels 2..10.
	IDDeflate ID = 2
	// ID 3 (mask bit 1 << 3) was a dictionary codec in earlier builds; it
	// is never advertised and reserved: never reuse it.

	// MaxID bounds codec identities so a Mask bit exists for each.
	MaxID ID = 15
)

// Mask is a codec capability set, one bit per ID — the unit the adocnet
// handshake exchanges and intersects. The zero Mask means "unspecified"
// everywhere a mask is optional; use LegacyMask for the fixed pre-mask set.
type Mask uint16

// Mask values.
const (
	// MaskRaw, MaskLZF and MaskDeflate are the single-codec masks.
	MaskRaw     Mask = 1 << IDRaw
	MaskLZF     Mask = 1 << IDLZF
	MaskDeflate Mask = 1 << IDDeflate

	// LegacyMask is the codec set every peer spoke before capability
	// masks were negotiated: exactly the paper's fixed level ladder. A
	// handshake payload too short to carry a mask decodes as this.
	LegacyMask = MaskRaw | MaskLZF | MaskDeflate
)

// Has reports whether the set contains id.
func (m Mask) Has(id ID) bool { return id <= MaxID && m&(1<<id) != 0 }

// With returns the set extended by id.
func (m Mask) With(id ID) Mask { return m | 1<<id }

// AllowsLevel reports whether the codec serving level l is in the set.
// Level 0 (raw copy) is allowed by any mask containing IDRaw.
func (m Mask) AllowsLevel(l Level) bool { return m.Has(l.CodecID()) }

// MaxUsableLevel returns the highest level ≤ bound whose codec is in the
// set — the effective upper bound a negotiated codec set imposes on the
// adaptive range. With IDRaw present the result is at least MinLevel.
func (m Mask) MaxUsableLevel(bound Level) Level {
	for l := bound; l > MinLevel; l-- {
		if m.AllowsLevel(l) {
			return l
		}
	}
	return MinLevel
}

// MinUsableLevel returns the lowest level in [floor, ceil] whose codec is
// in the set — the effective floor a codec set imposes on a forced
// compression minimum (a hole at the floor pushes it up, e.g. a forced
// LZF minimum against a raw+deflate set resolves to DEFLATE). ok is
// false when no level in the range is servable.
func (m Mask) MinUsableLevel(floor, ceil Level) (Level, bool) {
	for l := floor; l <= ceil; l++ {
		if m.AllowsLevel(l) {
			return l, true
		}
	}
	return 0, false
}

// String lists the set's codec names ("raw+lzf+deflate"); unknown bits
// print numerically so future codecs stay debuggable against old builds.
func (m Mask) String() string {
	if m == 0 {
		return "none"
	}
	var parts []string
	for id := ID(0); id <= MaxID; id++ {
		if !m.Has(id) {
			continue
		}
		if c, ok := Default().Lookup(id); ok {
			parts = append(parts, c.Name())
		} else {
			parts = append(parts, fmt.Sprintf("codec(%d)", id))
		}
	}
	return strings.Join(parts, "+")
}

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
	// ID is the codec's stable identity (also its capability-mask bit).
	ID() ID
	// Name is the short human-readable name used in masks and tables.
	Name() string
	// Compress produces the block for src at the given AdOC level (one of
	// the levels this codec serves). scratch may be reused for the result;
	// the returned block may alias scratch or src. Returning errNoGain
	// (wrapped or not) tells the caller to ship the block raw instead.
	Compress(scratch []byte, level Level, src []byte) ([]byte, error)
	// Decompress expands a block back to exactly rawLen bytes. Any failure
	// caused by the block's content must wrap ErrCorrupt.
	Decompress(block []byte, rawLen int) ([]byte, error)
}

// Registry maps codec IDs to implementations. The default registry holds
// raw, LZF and DEFLATE; alternate registries exist for tests and for
// embedding scenarios that add experimental codecs without touching the
// default set.
type Registry struct {
	mu     sync.RWMutex
	codecs [MaxID + 1]Codec
	mask   Mask
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds c to the registry. Registering a nil codec, an ID above
// MaxID, or an ID already taken is an error — codecs are identities, not
// overridable strategies.
func (r *Registry) Register(c Codec) error {
	if c == nil {
		return fmt.Errorf("codec: register nil codec")
	}
	id := c.ID()
	if id > MaxID {
		return fmt.Errorf("codec: id %d above MaxID %d", id, MaxID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.codecs[id] != nil {
		return fmt.Errorf("codec: id %d already registered (%s)", id, r.codecs[id].Name())
	}
	r.codecs[id] = c
	r.mask = r.mask.With(id)
	return nil
}

// Lookup returns the codec registered under id.
func (r *Registry) Lookup(id ID) (Codec, bool) {
	if id > MaxID {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.codecs[id]
	return c, c != nil
}

// ForLevel returns the codec serving level l.
func (r *Registry) ForLevel(l Level) (Codec, bool) { return r.Lookup(l.CodecID()) }

// Mask returns the capability set of everything registered — what this
// endpoint advertises in its handshake.
func (r *Registry) Mask() Mask {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mask
}

// defaultRegistry holds the built-in codecs.
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	for _, c := range []Codec{rawCodec{}, lzfCodec{}, deflateCodec{}} {
		if err := r.Register(c); err != nil {
			panic(err)
		}
	}
	return r
}()

// Default returns the process-wide registry of built-in codecs.
func Default() *Registry { return defaultRegistry }

// AllMask is the capability set of the default registry — the codecs this
// build offers in every handshake.
func AllMask() Mask { return defaultRegistry.Mask() }

// rawCodec is the level-0 identity codec. It exists as a registered codec
// so capability masks, fuzzing and tables treat "no compression" uniformly
// with the real codecs.
type rawCodec struct{}

func (rawCodec) ID() ID       { return IDRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) Compress(_ []byte, _ Level, src []byte) ([]byte, error) { return src, nil }

func (rawCodec) Decompress(block []byte, rawLen int) ([]byte, error) {
	if len(block) != rawLen {
		return nil, fmt.Errorf("%w: raw block is %d bytes, recorded %d", ErrCorrupt, len(block), rawLen)
	}
	return block, nil
}

// lzfCodec is the LZF block codec behind level 1.
type lzfCodec struct{}

func (lzfCodec) ID() ID       { return IDLZF }
func (lzfCodec) Name() string { return "lzf" }

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
