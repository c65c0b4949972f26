package wire

import "encoding/binary"

// Adler-32 (RFC 1950), the group checksum every groupEnd frame carries.
// The result is identical to hash/adler32's; the kernel is faster
// because it drops the byte-serial dependency between the two running
// sums.
//
// A word of 8 bytes loads little-endian and splits into two registers of
// four 16-bit lanes: e holds bytes 0, 2, 4, 6 and o bytes 1, 3, 5, 7.
// Over a block of checksumBlockWords words, v sums each lane and w adds
// up v before every word, so in the block byte position i (0–7) sums to
// Vᵢ and the block adds
//
//	s1 += ΣVᵢ
//	s2 += 8·n·s1 + 8·Σw + Σ(8−i)·Vᵢ
//
// to the scalar sums. A v lane stays below 255·16 and a w lane below
// 255·16·15/2, so no lane carries into its neighbour; the 64-bit scalar
// sums are reduced modulo 65521 once every checksumReduceBlocks blocks.
const (
	adlerMod = 65521
	// checksumBlockWords is how many words one block sums in lanes.
	checksumBlockWords = 16
	checksumBlockBytes = 8 * checksumBlockWords
	// checksumReduceBlocks is how many blocks run between reductions:
	// s2 grows by under 2²⁷ per block, far from overflowing 64 bits.
	checksumReduceBlocks = 16
	// evenBytes selects bytes 0, 2, 4 and 6 of a word into 16-bit lanes.
	evenBytes = 0x00FF00FF00FF00FF
	// lanes32 selects 16-bit lanes 0 and 2 of a register into 32-bit lanes.
	lanes32 = 0x0000FFFF0000FFFF
	// laneSum multiplies into the top lane the sum of all four 16-bit
	// lanes (each sum here stays below 2¹⁶).
	laneSum = 0x0001000100010001
)

// Checksum returns the Adler-32 checksum of p, byte-identical to
// hash/adler32.Checksum.
func Checksum(p []byte) uint32 { return updateChecksum(1, p) }

// updateChecksum continues the Adler-32 sum adler over p, so
// updateChecksum(updateChecksum(1, a), b) == Checksum(a ++ b).
func updateChecksum(adler uint32, p []byte) uint32 {
	s1, s2 := uint64(adler&0xffff), uint64(adler>>16)
	for len(p) >= checksumBlockBytes {
		for k := 0; k < checksumReduceBlocks && len(p) >= checksumBlockBytes; k++ {
			b := (*[checksumBlockBytes]byte)(p)
			var ve, vo, we, wo uint64
			for i := 0; i < checksumBlockWords; i++ {
				x := binary.LittleEndian.Uint64(b[8*i:])
				e := x & evenBytes
				o := (x ^ e) >> 8
				we += ve
				wo += vo
				ve += e
				vo += o
			}
			p = p[checksumBlockBytes:]
			// t's lanes sum byte pairs (0,1), (2,3), (4,5), (6,7); weighting
			// them 8, 6, 4, 2 over-counts each odd byte once, which the
			// lane sum of vo takes back.
			t := ve + vo
			w := we&lanes32 + we>>16&lanes32 + wo&lanes32 + wo>>16&lanes32
			tl, th := t&lanes32, t>>16&lanes32
			weighted := 8*(tl&0xffffffff) + 6*(th&0xffffffff) + 4*(tl>>32) + 2*(th>>32) -
				vo*laneSum>>48
			s2 += 8*checksumBlockWords*s1 + 8*(w&0xffffffff+w>>32) + weighted
			s1 += t * laneSum >> 48
		}
		s1 %= adlerMod
		s2 %= adlerMod
	}
	for _, c := range p {
		// Under one block remains: the sums cannot overflow.
		s1 += uint64(c)
		s2 += s1
	}
	return uint32(s2%adlerMod)<<16 | uint32(s1%adlerMod)
}
