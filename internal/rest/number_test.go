package rest

import (
	"bytes"
	"flag"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var exhaustive = flag.Bool("exhaustive", false, "check the float32 printer on all 2^32 bit patterns (minutes)")

// strconvFloat32 is encoding/json's float32 printer, the reference the
// codec's must match byte for byte.
func strconvFloat32(b []byte, f float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(f))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(f), format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// printMismatch reports how the codec prints the float32 with bits x when
// that differs from the reference, and "" when both agree or x is not
// finite.
func printMismatch(x uint32) string {
	f := math.Float32frombits(x)
	if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
		return ""
	}
	var gotBuf, wantBuf [32]byte
	got, want := appendFloat32(gotBuf[:0], f), strconvFloat32(wantBuf[:0], f)
	if bytes.Equal(got, want) {
		return ""
	}
	return "0x" + strconv.FormatUint(uint64(x), 16) + ": " + string(got) + ", want " + string(want)
}

// printSweep checks the printer on the float32s at(0) … at(n-1), split
// across GOMAXPROCS goroutines, and reports the first mismatches.
func printSweep(t *testing.T, n uint64, at func(uint64) uint32) {
	t.Helper()
	workers := uint64(runtime.GOMAXPROCS(0))
	var (
		mu  sync.Mutex
		bad []string
		wg  sync.WaitGroup
	)
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if msg := printMismatch(at(i)); msg != "" {
					mu.Lock()
					bad = append(bad, msg)
					mu.Unlock()
					return
				}
			}
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("mismatches (the first of each goroutine that had one):\n%s", strings.Join(bad, "\n"))
	}
}

// TestFloat32PrintSweep: the printer writes encoding/json's bytes on every
// subnormal, where the rounding interval is widest relative to the value
// and the shortest form can drop more than one digit; on the first and last
// 4,096 significands of every exponent; and on 1 M random bit patterns of
// either sign.
func TestFloat32PrintSweep(t *testing.T) {
	printSweep(t, 1<<23, func(i uint64) uint32 { return uint32(i) })
	printSweep(t, 254<<13, func(i uint64) uint32 {
		e, m := uint32(i>>13)+1, uint32(i&(1<<12-1))
		if i&(1<<12) != 0 {
			m = 1<<23 - 1 - m
		}
		return e<<23 | m
	})
	printSweep(t, 1<<20, func(i uint64) uint32 {
		i = (i + 1) * 0x9e3779b97f4a7c15 // a bijective mix of i
		return uint32(i>>32 ^ i)
	})
}

// TestFloat32PrintExhaustive: the printer against encoding/json's bytes on
// every finite float32. go test ./internal/rest -run Exhaustive -exhaustive
func TestFloat32PrintExhaustive(t *testing.T) {
	if !*exhaustive {
		t.Skip("needs -exhaustive")
	}
	printSweep(t, 1<<32, func(i uint64) uint32 { return uint32(i) })
	t.Log("all 2^32 bit patterns, NaN and ±Inf skipped: 0 mismatches")
}

// TestG1Table: each entry is the top 63 bits of ⌊10^-k·2^-r⌋ + 1 with
// 10^-k·2^-r in [2^125, 2^126), computed here exactly.
func TestG1Table(t *testing.T) {
	for i, got := range g1 {
		k := i - 45
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		// Scale 10^-k into [2^125, 2^126).
		for new(big.Int).Quo(num, den).BitLen() < 126 {
			num.Lsh(num, 1)
		}
		for new(big.Int).Quo(num, den).BitLen() > 126 {
			den.Lsh(den, 1)
		}
		g := new(big.Int).Quo(num, den)
		g.Add(g, big.NewInt(1))
		if want := g.Rsh(g, 63).Uint64(); got != want {
			t.Errorf("g1[%d] (k=%d) = %#x, want %#x", i, k, got, want)
		}
	}
}

// jsonNumber is JSON's number grammar after any leading whitespace, the
// literals the scanner must take.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// scanNumber reads lit as one whole float32 literal and as one whole int64.
func scanNumber(lit string) (f float32, fok bool, i int64, iok bool) {
	s := scanner{b: []byte(lit), ok: true}
	f = s.float32()
	fok = s.ok && s.i == len(lit)
	s = scanner{b: []byte(lit), ok: true}
	i = s.int64()
	iok = s.ok && s.i == len(lit)
	return f, fok, i, iok
}

// checkNumberScan fails t unless the scanner takes lit as a float32 and as
// an int64 exactly when JSON's grammar and strconv do, with strconv's bits.
func checkNumberScan(t *testing.T, lit string) {
	t.Helper()
	f, fok, i, iok := scanNumber(lit)
	grammar := jsonNumber.MatchString(lit)
	trimmed := strings.TrimLeft(lit, " \t\n\r")
	wf, err := strconv.ParseFloat(trimmed, 32)
	if want, wantOK := float32(wf), grammar && err == nil; fok != wantOK || fok && math.Float32bits(f) != math.Float32bits(want) {
		t.Fatalf("float32 %q: got %v (ok %v), strconv %v (ok %v)", lit, f, fok, want, wantOK)
	}
	wi, err := strconv.ParseInt(trimmed, 10, 64)
	if wantOK := grammar && err == nil; iok != wantOK || iok && i != wi {
		t.Fatalf("int64 %q: got %d (ok %v), strconv %d (ok %v)", lit, i, iok, wi, wantOK)
	}
}

// TestNumberScan: on the wire numbers and on random literals — float32s in
// 'e' form at every precision and in 'f' form, float32 midpoints written as
// float64s, mantissas of up to 20 digits under exponents around the exact
// range, and integers of every width — the scanner's float32 and int64 are
// strconv's accept, reject and bits.
func TestNumberScan(t *testing.T) {
	for _, n := range wireNumbers {
		checkNumberScan(t, n.lit)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		f := math.Float32frombits(r.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		for _, lit := range []string{
			strconv.FormatFloat(float64(f), 'e', r.Intn(12), 32),
			strconv.FormatFloat(float64(f), 'f', -1, 32),
			strconv.FormatFloat(mid, 'g', -1, 64),
			strconv.FormatUint(r.Uint64()>>r.Intn(64), 10) + "e" + strconv.Itoa(r.Intn(60)-30),
			strconv.FormatInt(r.Int63()>>r.Intn(63)-r.Int63(), 10),
		} {
			checkNumberScan(t, lit)
		}
	}
}

// FuzzFloat32Print: on any bit pattern, the printer writes encoding/json's
// bytes.
func FuzzFloat32Print(f *testing.F) {
	for _, v := range goldenFloats {
		f.Add(math.Float32bits(v))
	}
	for _, x := range []uint32{1, 0x15, 0x1d, 0x47, 1<<23 - 1, 0x4b800001} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x uint32) {
		if msg := printMismatch(x); msg != "" {
			t.Fatal(msg)
		}
	})
}

// FuzzNumberScan: on any bytes, the scanner takes a float32 and an int64
// exactly when JSON's grammar and strconv do, with strconv's bits.
func FuzzNumberScan(f *testing.F) {
	for _, n := range wireNumbers {
		f.Add(n.lit)
	}
	f.Fuzz(checkNumberScan)
}

// BenchmarkFloat32: one float32 printed and scanned by strconv (as
// encoding/json does) and by the codec, over uniform values in [0,1) and
// SIFT-like values in [0,255).
func BenchmarkFloat32(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	uniform, sift := make([]float32, 4096), make([]float32, 4096)
	for i := range uniform {
		uniform[i], sift[i] = r.Float32(), r.Float32()*255
	}
	for _, set := range []struct {
		name string
		v    []float32
	}{{"uniform", uniform}, {"sift", sift}} {
		lits := make([][]byte, len(set.v))
		for i, f := range set.v {
			lits[i] = strconvFloat32(nil, f)
		}
		printing := func(appendFloat func([]byte, float32) []byte) func(*testing.B) {
			return func(b *testing.B) {
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = appendFloat(buf[:0], set.v[i%len(set.v)])
				}
				wireSink = buf
			}
		}
		scanning := func(parse func([]byte) float32) func(*testing.B) {
			return func(b *testing.B) {
				var sum float32
				for i := 0; i < b.N; i++ {
					sum += parse(lits[i%len(lits)])
				}
				wireSink = sum
			}
		}
		b.Run("print/"+set.name+"/strconv", printing(strconvFloat32))
		b.Run("print/"+set.name+"/codec", printing(appendFloat32))
		b.Run("scan/"+set.name+"/strconv", scanning(func(lit []byte) float32 {
			f, _ := strconv.ParseFloat(string(lit), 32)
			return float32(f)
		}))
		b.Run("scan/"+set.name+"/codec", scanning(func(lit []byte) float32 {
			s := scanner{b: lit, ok: true}
			return s.float32()
		}))
	}
}
