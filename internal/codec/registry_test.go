package codec

import (
	"strings"
	"testing"
)

func TestLevelCodecMapping(t *testing.T) {
	cases := []struct {
		level Level
		want  ID
	}{
		{0, IDRaw}, {1, IDLZF}, {2, IDDeflate}, {6, IDDeflate}, {10, IDDeflate},
	}
	for _, tc := range cases {
		if got := tc.level.CodecID(); got != tc.want {
			t.Errorf("level %d → codec %d, want %d", tc.level, got, tc.want)
		}
		c, ok := Default().ForLevel(tc.level)
		if !ok {
			t.Fatalf("no codec registered for level %d", tc.level)
		}
		if c.ID() != tc.want {
			t.Errorf("ForLevel(%d).ID() = %d, want %d", tc.level, c.ID(), tc.want)
		}
	}
}

func TestDefaultRegistryMask(t *testing.T) {
	if got := AllMask(); got != LegacyMask {
		t.Fatalf("AllMask() = %v, want raw+lzf+deflate", got)
	}
	// ID 3 is reserved for the retired dictionary codec: never registered,
	// so the mask this build advertises never carries its bit.
	if _, ok := Default().Lookup(3); ok || AllMask().Has(3) {
		t.Fatalf("reserved codec ID 3 is registered")
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(rawCodec{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(rawCodec{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(nil); err == nil {
		t.Fatal("nil codec accepted")
	}
	if got := r.Mask(); got != MaskRaw {
		t.Fatalf("mask = %v, want raw only", got)
	}
}

func TestMaskHelpers(t *testing.T) {
	m := MaskRaw | MaskDeflate // a hole at LZF
	if !m.AllowsLevel(0) || m.AllowsLevel(1) || !m.AllowsLevel(2) || !m.AllowsLevel(10) {
		t.Fatalf("AllowsLevel wrong for %v", m)
	}
	if got := m.MaxUsableLevel(10); got != 10 {
		t.Errorf("MaxUsableLevel(10) = %d, want 10", got)
	}
	if got := (MaskRaw | MaskLZF).MaxUsableLevel(10); got != 1 {
		t.Errorf("lzf-only MaxUsableLevel(10) = %d, want 1", got)
	}
	if got := Mask(MaskRaw).MaxUsableLevel(10); got != 0 {
		t.Errorf("raw-only MaxUsableLevel(10) = %d, want 0", got)
	}
	// The bound is respected even when higher codecs exist.
	if got := m.MaxUsableLevel(1); got != 0 {
		t.Errorf("MaxUsableLevel(1) with no lzf = %d, want 0", got)
	}
}

func TestMinUsableLevel(t *testing.T) {
	hole := MaskRaw | MaskDeflate // no LZF
	if got, ok := hole.MinUsableLevel(1, 10); !ok || got != 2 {
		t.Errorf("MinUsableLevel(1,10) over the lzf hole = %d/%v, want 2/true", got, ok)
	}
	if got, ok := hole.MinUsableLevel(0, 10); !ok || got != 0 {
		t.Errorf("MinUsableLevel(0,10) = %d/%v, want 0/true", got, ok)
	}
	if got, ok := AllMask().MinUsableLevel(3, 10); !ok || got != 3 {
		t.Errorf("full-mask MinUsableLevel(3,10) = %d/%v, want 3/true", got, ok)
	}
	if _, ok := Mask(MaskRaw).MinUsableLevel(1, 10); ok {
		t.Error("raw-only mask claims a usable level in [1,10]")
	}
}

func TestMaskString(t *testing.T) {
	if s := AllMask().String(); s != "raw+lzf+deflate" {
		t.Errorf("AllMask().String() = %q", s)
	}
	if s := Mask(0).String(); s != "none" {
		t.Errorf("zero mask String() = %q", s)
	}
	// Unregistered bits stay printable.
	if s := (MaskRaw | 1<<9).String(); !strings.Contains(s, "codec(9)") {
		t.Errorf("unknown-bit String() = %q, want codec(9) mentioned", s)
	}
}
