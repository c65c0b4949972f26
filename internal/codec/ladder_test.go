package codec

import "testing"

// TestLevelCodecMapping pins the paper's fixed ladder: level 0 is raw,
// 1 is LZF and 2..10 are DEFLATE, and every rung has a codec.
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
		if codecs[tc.level.CodecID()] == nil {
			t.Fatalf("no codec for level %d", tc.level)
		}
	}
}

// TestDefaultRegistryMask pins the codec set every build offers: exactly
// the codecs of the fixed ladder, one mask bit per ladder entry, and never
// the bit of the retired dictionary codec (ID 3).
func TestDefaultRegistryMask(t *testing.T) {
	if LegacyMask != 1<<IDRaw|1<<IDLZF|1<<IDDeflate {
		t.Fatalf("LegacyMask = %#x, want raw+lzf+deflate", uint16(LegacyMask))
	}
	var ladder Mask
	for id, c := range codecs {
		if c != nil {
			ladder |= 1 << id
		}
	}
	if ladder != LegacyMask {
		t.Fatalf("ladder codecs = %#x, LegacyMask = %#x", uint16(ladder), uint16(LegacyMask))
	}
	// ID 3 is reserved for the retired dictionary codec: no ladder entry,
	// so the mask this build advertises never carries its bit.
	if len(codecs) > 3 || LegacyMask&(1<<3) != 0 {
		t.Fatalf("reserved codec ID 3 is in the ladder or the offered mask")
	}
}
