package transport

import (
	"math"
	"testing"
)

// oracleFloat16Bits and oracleFloat16From are the plain scalar
// binary16 conversions, kept branch for branch as the reference the
// table-driven Float16From and the fast-path Float16Bits must match bit
// for bit.
func oracleFloat16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 0x1f:
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf (including overflow)
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to signed zero
		}
		man |= 0x800000
		shift := uint32(14 - exp) // exp in [-10, 0] → shift in [14, 24]
		half := man >> shift
		rem := man & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(man>>13)
		rem := man & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // mantissa carry may roll into the exponent; 0x7c00 is Inf, which is correct
		}
		return sign | half
	}
}

func oracleFloat16From(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(113) // normalize a binary16 subnormal into float32
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// checkBits fails t if Float16Bits disagrees with the oracle on the
// float32 with bit pattern b.
func checkBits(t *testing.T, b uint32) {
	t.Helper()
	f := math.Float32frombits(b)
	if got, want := Float16Bits(f), oracleFloat16Bits(f); got != want {
		t.Fatalf("Float16Bits(%g = %08x) = %04x, oracle %04x", f, b, got, want)
	}
}

// Every binary16 pattern decodes to the oracle's float32 bits, NaN
// payloads included, and every non-NaN half survives the round trip.
func TestFloat16FromAllHalves(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		got := Float16From(h)
		if gb, wb := math.Float32bits(got), math.Float32bits(oracleFloat16From(h)); gb != wb {
			t.Fatalf("Float16From(%04x) = %08x, oracle %08x", h, gb, wb)
		}
		if h&0x7fff > 0x7c00 {
			continue // NaN: payload is not preserved on encode
		}
		if back := Float16Bits(got); back != h {
			t.Fatalf("Float16Bits(Float16From(%04x)) = %04x", h, back)
		}
	}
}

// Round-to-nearest-even decides exactly at the midpoint between two
// adjacent halves; the float32 one ulp either side must go the other
// way. Covers the subnormal grid, every binade, and the 65504→Inf edge
// (midpoint 65520), for both signs.
func TestFloat16BitsMidpoints(t *testing.T) {
	for h := uint16(0); h < 0x7c00; h++ {
		lo := float64(Float16From(h))
		hi := 65536.0 // the next step above 65504 is Inf; its midpoint is 65520
		if h+1 < 0x7c00 {
			hi = float64(Float16From(h + 1))
		}
		mid := math.Float32bits(float32((lo + hi) / 2)) // exact: 12 significant bits
		for _, b := range []uint32{mid - 1, mid, mid + 1} {
			checkBits(t, b)
			checkBits(t, b|0x80000000)
		}
	}
}

// The edges of every regime: the fast path's own range limits, the
// subnormal flush and carry-out points, overflow, Inf and NaN.
func TestFloat16BitsBoundaries(t *testing.T) {
	edges := []uint32{
		0x00000000, 0x00000001, 0x007fffff, 0x00800000, // zero and float32 subnormals
		0x33000000, 0x33000001, 0x337fffff, // 2^-25: half the smallest subnormal ties to zero
		0x33800000, 0x33c00000, // 2^-24, 1.5·2^-24
		0x387fc000, 0x387fdfff, 0x387fe000, 0x387fffff, // largest subnormal and the carry into 2^-14
		0x38800000, 0x38800001, // 2^-14, the fast path's lower limit
		0x477fe000, 0x477fefff, 0x477ff000, 0x477ff001, 0x477fffff, // 65504, 65520 (ties to Inf)
		0x47800000, 0x7f7fffff, // 65536 and MaxFloat32 overflow
		0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff, // Inf and NaNs
	}
	for _, b := range edges {
		checkBits(t, b)
		checkBits(t, b|0x80000000)
	}
}

// A strided sweep across all 2^32 float32 patterns; the odd stride
// walks every exponent with varied mantissa low bits.
func TestFloat16BitsStridedSweep(t *testing.T) {
	const stride = 8191
	for b := uint64(0); b < 1<<32; b += stride {
		checkBits(t, uint32(b))
	}
}
