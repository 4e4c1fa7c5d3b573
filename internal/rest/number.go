package rest

// The codec's number kernels: a float32 printer that writes strconv's
// shortest digits in encoding/json's format, and a one-pass scanner of
// JSON's number grammar whose float32 and int64 are strconv's bits.

import (
	"math"
	"math/bits"
	"strconv"
)

// pairs is "00" through "99", the digits of each two-digit number.
const pairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// decimal writes m's digits at the end of d, two at a time, and returns
// the index of the first.
func decimal(d *[20]byte, m uint64) int {
	i := len(d)
	for ; m >= 100; m /= 100 {
		i -= 2
		r := m % 100
		d[i], d[i+1] = pairs[2*r], pairs[2*r+1]
	}
	if m >= 10 {
		i -= 2
		d[i], d[i+1] = pairs[2*m], pairs[2*m+1]
	} else {
		i--
		d[i] = byte('0' + m)
	}
	return i
}

// appendFloat32 appends the finite f as encoding/json prints a float32:
// strconv's shortest round-trip digits, in 'f' form within [1e-6, 1e21)
// and in 'e' form outside it, where a one-digit negative exponent is left
// unpadded ("1e-7", but "1e+21").
func appendFloat32(b []byte, f float32) []byte {
	x := math.Float32bits(f)
	if x>>31 != 0 {
		b = append(b, '-')
		x &^= 1 << 31
	}
	if x == 0 {
		return append(b, '0')
	}
	m, e := shortest(x)
	for m%10 == 0 {
		m /= 10
		e++
	}
	var d [20]byte
	digits := d[decimal(&d, m):]
	n := len(digits)
	dp := n + e // f is 0.digits × 10^dp
	if abs := math.Float32frombits(x); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if n > 1 {
			b = append(append(b, '.'), digits[1:]...)
		}
		exp, sign := dp-1, byte('+')
		if exp < 0 {
			exp, sign = -exp, '-'
		}
		b = append(b, 'e', sign)
		if sign == '-' && exp < 10 {
			return append(b, byte('0'+exp))
		}
		return append(b, pairs[2*exp], pairs[2*exp+1])
	}
	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case dp < n:
		b = append(append(b, digits[:dp]...), '.')
		return append(b, digits[dp:]...)
	}
	b = append(b, digits...)
	for ; dp > n; dp-- {
		b = append(b, '0')
	}
	return b
}

// shortest returns m·10^k, the decimal strconv's shortest formatting picks
// for the positive finite float32 with bits x: of those with the fewest
// digits that read back as x, the nearest to it, ties to even. It is
// Giulietti's Schubfach ("The Schubfach way to render doubles", 2020) for
// 24-bit significands, but tries one digit fewer down to one digit, as
// strconv does ("1e-45"; the Java original keeps two: "1.4e-45").
func shortest(x uint32) (m uint64, k int) {
	c, q := uint64(x&(1<<23-1)), int(x>>23)-150
	if q == -150 {
		q = -149 // subnormal
	} else {
		c |= 1 << 23
	}
	// An integer below 2^24 is its own shortest form.
	if -24 < q && q < 0 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	// v = c·2^q rounds from the interval (vl, vr) — closed when c is even —
	// whose ends are its midpoints with its neighbours. Each is taken
	// ×4·10^-k, with 10^k at most the interval's width, rounded to odd.
	out := c & 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	if c != 1<<23 || q == -149 {
		k = q * 661971961083 >> 41 // ⌊log10 2^q⌋
	} else {
		// Above the subnormals, 2^q's lower neighbour is twice as near.
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41 // ⌊log10 ¾·2^q⌋
	}
	h := q + (-k*913124641741)>>38 + 33 // q + ⌊log2 10^-k⌋ + 33
	g := g1[k+45] + 1
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		if wpin := tp10<<2+out <= vbr; upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	if win := t<<2+out <= vbr; uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb) - int64((s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is cp·g/2^95 rounded to odd.
func rop(g, cp uint64) uint64 {
	hi, _ := bits.Mul64(g, cp)
	return hi>>31 | (hi&(1<<32-1)+(1<<32-1))>>32
}

// g1 holds, for k from -45 to 31, the top 63 bits of ⌊10^-k·2^-r⌋ + 1,
// where r is the integer that puts 10^-k·2^-r in [2^125, 2^126).
var g1 = [77]uint64{
	0x59aedfc10d7279c5, 0x47bf19673df52e37, 0x72cb5bd86321e38c, 0x5bd5e313828182d6, 0x4977e8dc68679bdf,
	0x758ca7c70d7292fe, 0x5e0a1fd271287598, 0x4b3b4ca85a86c47a, 0x785ee10d5da46d90, 0x604be73de4838ad9,
	0x4d0985cb1d3608ae, 0x7b426fab61f00de3, 0x629b8c891b267182, 0x4ee2d6d415b85ace, 0x7e37be2022c0914b,
	0x64f964e68233a76f, 0x50c783eb9b5c85f2, 0x409f9cbc7c4a04c2, 0x6765c793fa10079d, 0x52b7d2dcc80cd2e4,
	0x422ca8b0a00a4250, 0x69e10de76676d080, 0x54b40b1f852bda00, 0x43c33c1937564800, 0x6c6b935b8bbd4000,
	0x56bc75e2d6310000, 0x4563918244f40000, 0x6f05b59d3b200000, 0x58d15e1762800000, 0x470de4df82000000,
	0x71afd498d0000000, 0x5af3107a40000000, 0x48c2739500000000, 0x746a528800000000, 0x5d21dba000000000,
	0x4a817c8000000000, 0x7735940000000000, 0x5f5e100000000000, 0x4c4b400000000000, 0x7a12000000000000,
	0x61a8000000000000, 0x4e20000000000000, 0x7d00000000000000, 0x6400000000000000, 0x5000000000000000,
	0x4000000000000000, 0x6666666666666666, 0x51eb851eb851eb85, 0x4189374bc6a7ef9d, 0x68db8bac710cb295,
	0x53e2d6238da3c211, 0x431bde82d7b634da, 0x6b5fca6af2bd215e, 0x55e63b88c230e77e, 0x44b82fa09b5a52cb,
	0x6df37f675ef6eadf, 0x57f5ff85e592557f, 0x465e6604b7a84465, 0x709709a125da0709, 0x5a126e1a84ae6c07,
	0x480ebe7b9d58566c, 0x734aca5f6226f0ad, 0x5c3bd5191b525a24, 0x49c97747490eae83, 0x760f253edb4ab0d2,
	0x5e72843249088d75, 0x4b8ed0283a6d3df7, 0x78e480405d7b9658, 0x60b6cd004ac94513, 0x4d5f0a66a23a9da9,
	0x7bcb43d769f762a8, 0x63090312bb2c4eed, 0x4f3a68dbc8f03f24, 0x7ec3daf941806506, 0x65697bfa9acd1d9f,
	0x51212ffbaf0a7e18, 0x40e7599625a1fe7a,
}

// number is one literal of JSON's number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? as the scanner read it.
type number struct {
	start   int // where its bytes begin in the body; the scanner is past them
	neg     bool
	integer bool   // neither fraction nor exponent
	nd      int    // digits before the exponent; past 19, mant is not exact
	mant    uint64 // those digits as an integer
	exp     int    // the literal is ±mant·10^exp
}

// number reads one literal in a single pass that checks the grammar and
// gathers its digits. What may follow it is the caller's check, so "01"
// fails at the "1".
func (s *scanner) number() (n number) {
	if !s.ok {
		return n
	}
	s.skip()
	b, i := s.b, s.i
	n.start = i
	n.neg = i < len(b) && b[i] == '-'
	if n.neg {
		i++
	}
	j := i
	switch {
	case i < len(b) && b[i] == '0':
		j++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j, n.mant = digits(b, i, 0)
	default:
		s.ok = false
	}
	n.nd, n.integer = j-i, true
	if i = j; i < len(b) && b[i] == '.' {
		j, n.mant = digits(b, i+1, n.mant)
		s.ok = s.ok && j > i+1
		n.nd, n.exp, n.integer = n.nd+j-i-1, i+1-j, false
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.integer = false
		negExp := false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			negExp = b[i] == '-'
			i++
		}
		x := 0
		for j = i; j < len(b) && b[j]-'0' < 10; j++ {
			if x < 1e4 { // far past any float's range; the fallback decides
				x = x*10 + int(b[j]-'0')
			}
		}
		s.ok = s.ok && j > i
		if negExp {
			x = -x
		}
		n.exp += x
		i = j
	}
	s.i = i
	return n
}

// digits folds the run of decimal digits at b[i:] into mant (which wraps
// past 19 of them) and returns the run's end.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return i, mant
}

// float32 reads a number as json.Unmarshal does for a float32 field, with
// strconv.ParseFloat(lit, 32)'s bits; one out of float32's range is its
// error. Below 2^53 and within 10^±22 one exact float64 operation rounds
// correctly, and rounding that again to float32 is exact unless it lands
// on a float32 midpoint (low 29 bits 1<<28); other literals go to strconv.
func (s *scanner) float32() float32 {
	n := s.number()
	if !s.ok {
		return 0
	}
	if n.nd <= 19 && n.mant < 1<<53 && -22 <= n.exp && n.exp <= 22 {
		f := float64(n.mant)
		if n.exp >= 0 {
			f *= math.Pow10(n.exp) // exact up to 10^22, as is f
		} else {
			f /= math.Pow10(-n.exp)
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if n.neg {
				f = -f
			}
			return float32(f)
		}
	}
	f, err := strconv.ParseFloat(string(s.b[n.start:s.i]), 32)
	s.ok = err == nil
	return float32(f)
}

// int64 reads a number as json.Unmarshal does for an int64 field; a
// fraction, an exponent or overflow is its error.
func (s *scanner) int64() int64 {
	n := s.number()
	limit := uint64(math.MaxInt64)
	if n.neg {
		limit++
	}
	s.ok = s.ok && n.integer && n.nd <= 19 && n.mant <= limit
	if n.neg {
		return -int64(n.mant)
	}
	return int64(n.mant)
}
