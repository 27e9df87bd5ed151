package serve

import (
	"math"
	"math/big"
	"math/bits"
)

// appendFixedFloat appends f, which must be ±0 or have 1e-6 ≤ |f| < 1e21,
// in the fixed-point form encoding/json writes there: the shortest
// decimal that rounds back to f, the closest to f among those, ties to
// an even last digit — strconv.AppendFloat(b, f, 'f', -1, 64) byte for
// byte. The digits come from Schubfach (R. Giulietti, "The Schubfach way
// to render doubles", 2020), the algorithm of Java's Double.toString,
// restricted to normal doubles; shortestDecimal has the details.
// appendJSONFloat routes every value outside the range to strconv's
// exponent form, so subnormals never reach it.
func appendFixedFloat(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if fb<<1 == 0 {
		return append(b, '0')
	}
	d, e := shortestDecimal(fb)
	for d%10 == 0 {
		d /= 10
		e++
	}
	nd := decimalLen(d)
	n := len(b)
	switch dp := nd + e; {
	case e >= 0: // an integer: the digits, then e zeros
		b = append(b, zeros[:nd+e]...)
		putDigits(b[n:n+nd], d)
	case dp > 0: // the point falls inside the digits
		b = append(b, zeros[:nd+1]...)
		putDigits(b[n+1:], d)
		copy(b[n:n+dp], b[n+1:n+1+dp])
		b[n+dp] = '.'
	default: // "0.", -dp zeros, the digits
		b = append(b, zeros[:2-dp+nd]...)
		b[n+1] = '.'
		putDigits(b[n+2-dp:], d)
	}
	return b
}

// zeros pads appendFixedFloat's output; the longest in-range rendering,
// 0.0000012345678901234567, has 24 bytes.
const zeros = "000000000000000000000000"

// shortestDecimal returns d and e with d·10^e the shortest decimal that
// rounds to the positive normal double with bits fb (the sign bit is
// ignored), the closest to it among those, ties to even d. Only
// exponents with 1e-6 ≤ value < 1e21 have a pow10 entry.
//
// With value = c·2^q, the rounding interval is [c−½, c+½]·2^q (its
// lower half is ¼ wide at c = 2^52), closed when c is even. Scaling by
// 10^−k, with k = ⌊log10 of the interval's width⌋, leaves an interval
// between one and ten units wide: it holds at most one multiple of ten
// and at least one of s = ⌊value·10^−k⌋ and s+1. The kernel computes the
// interval's ends and the value itself, times four, with round-to-odd
// products against a 126-bit overestimate of 10^−k; the odd bit keeps
// every comparison and the tie exact.
func shortestDecimal(fb uint64) (d uint64, e int) {
	c := fb&(1<<52-1) | 1<<52
	q := int(fb>>52&0x7ff) - 1075
	// An integer below 2^53 is its own shortest decimal.
	if 0 < -q && -q < 53 {
		if d := c >> -q; d<<-q == c {
			return d, 0
		}
	}
	out := c & 1 // an even c keeps the interval closed
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	h := q + floorLog2Pow10(-k) + 2
	g := &pow10[k-pow10MinK]
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)

	s := vb >> 2
	// One digit shorter: the interval's only multiple of ten, if any.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both neighbours round to the value: take the closer, ties to even.
	if cmp := int64(vb) - int64(s+t)<<1; cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns ⌊cp·g / 2^127⌋ with its low bit set when the
// discarded part is not zero, where g = g1·2^63 + g0.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// floorLog10Pow2 is ⌊q·log10(2)⌋, floorLog10ThreeQuartersPow2 is
// ⌊log10(¾·2^q)⌋ and floorLog2Pow10 is ⌊e·log2(10)⌋; the fixed-point
// constants are exact far beyond the exponents used here
// (TestFloorLogs checks them against math/big).
func floorLog10Pow2(q int) int { return int(int64(q) * 661_971_961_083 >> 41) }

func floorLog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

func floorLog2Pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10MinK and pow10MaxK bound the k that shortestDecimal meets for
// 1e-6 ≤ value < 1e21: q runs from −72 (2^−20 ≤ 1e-6 < 2^−19) to 17
// (2^69 < 1e21 < 2^70).
const (
	pow10MinK = -22
	pow10MaxK = 5
)

// pow10[k−pow10MinK] holds g = ⌊10^−k·2^(125−⌊−k·log2(10)⌋)⌋ + 1, a
// 126-bit overestimate of 10^−k, as {g >> 63, g mod 2^63}.
var pow10 = func() (t [pow10MaxK - pow10MinK + 1][2]uint64) {
	ten := big.NewInt(10)
	for k := pow10MinK; k <= pow10MaxK; k++ {
		g := new(big.Int)
		if sh := 125 - floorLog2Pow10(-k); k <= 0 {
			g.Exp(ten, big.NewInt(int64(-k)), nil)
			g.Lsh(g, uint(sh))
		} else {
			g.Lsh(big.NewInt(1), uint(sh))
			g.Quo(g, new(big.Int).Exp(ten, big.NewInt(int64(k)), nil))
		}
		g.Add(g, big.NewInt(1))
		lo := new(big.Int).And(g, new(big.Int).SetUint64(1<<63-1))
		t[k-pow10MinK] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), lo.Uint64()}
	}
	return t
}()

// decimalLen returns the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // ⌊log10(2^len)⌋, one short at most
	if d >= pow10u64[n] {
		n++
	}
	return n
}

var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// putDigits writes the len(dst) ≤ 17 decimal digits of d into dst, two
// at a time, the low eight in 32-bit arithmetic.
func putDigits(dst []byte, d uint64) {
	i := len(dst)
	if i > 8 {
		hi := d / 1e8
		lo := uint32(d - hi*1e8)
		for j := 0; j < 4; j++ {
			r := lo % 100
			lo /= 100
			i -= 2
			dst[i], dst[i+1] = digitPairs[2*r], digitPairs[2*r+1]
		}
		d = hi
	}
	x := uint32(d)
	for i >= 2 {
		r := x % 100
		x /= 100
		i -= 2
		dst[i], dst[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if i == 1 {
		dst[0] = byte('0' + x)
	}
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
