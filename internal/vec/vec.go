// Package vec provides the low-level vector math substrate of vectordb:
// similarity/distance kernels for float vectors and binary fingerprints,
// with runtime selection between several unrolled kernel tiers.
//
// The paper (Sec. 3.2.2) factors every similarity-computing function into
// four SIMD variants (SSE, AVX, AVX2, AVX512), compiles each separately and
// hooks the right function pointers at runtime based on CPU flags. This
// package reproduces that mechanism — one kernel set per tier, selected
// once at startup through function pointers:
//
//	LevelScalar  — straight loop                 (no SIMD)
//	LevelSSE     — 4-wide unroll, 1 accumulator  (128-bit registers)
//	LevelAVX     — 8-wide unroll, 2 accumulators (256-bit registers)
//	LevelAVX2    — 8-wide unroll + FMA-style fusion
//	LevelAVX512  — 16-wide unroll, 4 accumulators (512-bit registers)
//
// Every tier has portable register-blocked pure-Go kernels (multi-
// accumulator unrolls standing in for wider registers). On amd64, the
// *batch* entry points of the AVX2/AVX512 tiers are additionally backed by
// hand-written AVX2+FMA / AVX-512 assembly (asm_amd64.s), installed at
// startup only when CPUID and XCR0 confirm host support — the Go kernels
// remain the reference semantics the asm is fuzz-tested against, and the
// fallback everywhere else, including amd64 builds with the purego tag.
// Wider tiers are measurably faster, preserving the shape of the paper's
// Fig. 12.
package vec

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Level identifies a SIMD kernel tier.
type Level int32

const (
	LevelScalar Level = iota
	LevelSSE
	LevelAVX
	LevelAVX2
	LevelAVX512
)

// String returns the conventional instruction-set name for the tier.
func (l Level) String() string {
	switch l {
	case LevelScalar:
		return "scalar"
	case LevelSSE:
		return "sse"
	case LevelAVX:
		return "avx"
	case LevelAVX2:
		return "avx2"
	case LevelAVX512:
		return "avx512"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel converts a tier name ("sse", "avx2", ...) to a Level.
func ParseLevel(s string) (Level, error) {
	for _, l := range []Level{LevelScalar, LevelSSE, LevelAVX, LevelAVX2, LevelAVX512} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("vec: unknown SIMD level %q", s)
}

// kernelSet is the set of hooked function pointers for one tier.
type kernelSet struct {
	l2   func(a, b []float32) float32
	ip   func(a, b []float32) float32
	l2b  func(q []float32, data []float32, dim int, out []float32)
	ipb  func(q []float32, data []float32, dim int, out []float32)
	l2bb func(q []float32, data []float32, dim int, bound float32, out []float32)
	l2t  func(qs []float32, data []float32, dim, nq int, out []float32)
	ipt  func(qs []float32, data []float32, dim, nq int, out []float32)
	l2p  func(x []float32, p *Panels, out []PanelMin)
	cdt  func(us []int16, codes []uint8, dim, nq int, out []int32)
	hl   func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int
	enc  func(data []float32, lo, inv float32, out []uint8)
	mm   func(data []float32) (lo, hi float32, ok bool)
}

var kernels = [...]kernelSet{
	LevelScalar: {l2Scalar, ipScalar, l2BatchScalar, ipBatchScalar, l2BoundScalar, tileOf(l2BatchScalar), tileOf(ipBatchScalar), l2PanelGo, codeTileGo, headListGo, encodeGo, minMaxGo},
	LevelSSE:    {l2Unroll4, ipUnroll4, l2Batch4x4, ipBatch4x4, l2Bound4, tileOf(l2Batch4x4), tileOf(ipBatch4x4), l2PanelGo, codeTileGo, headListGo, encodeGo, minMaxGo},
	LevelAVX:    {l2Unroll8, ipUnroll8, l2Batch4x8, ipBatch4x8, l2Bound8, tileOf(l2Batch4x8), tileOf(ipBatch4x8), l2PanelGo, codeTileGo, headListGo, encodeGo, minMaxGo},
	LevelAVX2:   {l2Unroll8, ipUnroll8, l2Batch4x8, ipBatch4x8, l2Bound8, tileOf(l2Batch4x8), tileOf(ipBatch4x8), l2PanelGo, codeTileGo, headListGo, encodeGo, minMaxGo},
	LevelAVX512: {l2Unroll16, ipUnroll16, l2Batch4x16, ipBatch4x16, l2Bound16, tileOf(l2Batch4x16), tileOf(ipBatch4x16), l2PanelGo, codeTileGo, headListGo, encodeGo, minMaxGo},
}

var currentLevel atomic.Int32

// active holds the hooked kernel pointers. It is an atomic pointer so that
// SetLevel (startup, tests) can retarget the kernels while searches are in
// flight on other goroutines without a data race; each kernelSet is
// immutable once published.
var active atomic.Pointer[kernelSet]

func init() {
	installASMKernels()
	SetLevel(DetectLevel())
}

// DetectLevel picks the best tier supported by the running CPU. On amd64
// the decision comes from real CPUID/XCR0 probing (see asm_amd64.go):
// AVX-512 F, else AVX2+FMA, else the portable Go tiers. Elsewhere the Go
// kernels run everywhere and the widest useful tier is assumed. The
// VECTORDB_SIMD environment variable overrides detection, mirroring the
// paper's single-binary-many-CPUs requirement: the same binary adapts per
// host without recompilation. A forced tier is always safe — the asm
// kernels are installed per tier only when the host supports them.
func DetectLevel() Level {
	if s := os.Getenv("VECTORDB_SIMD"); s != "" {
		if l, err := ParseLevel(s); err == nil {
			return l
		}
	}
	return bestLevelForHost()
}

// SetLevel hooks the kernel function pointers for the given tier.
func SetLevel(l Level) {
	if l < LevelScalar || l > LevelAVX512 {
		l = LevelScalar
	}
	ks := kernels[l]
	active.Store(&ks)
	currentLevel.Store(int32(l))
}

// CurrentLevel reports the tier currently hooked.
func CurrentLevel() Level { return Level(currentLevel.Load()) }

// L2Squared returns the squared Euclidean distance between a and b using the
// hooked kernel. Panics if lengths differ (programming error, not data error).
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	countCurrent()
	return active.Load().l2(a, b)
}

// Dot returns the inner product of a and b using the hooked kernel.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	countCurrent()
	return active.Load().ip(a, b)
}

// L2SquaredBatch computes the squared L2 distance from q to every row of the
// flat row-major matrix data (len(data) = n*dim) into out (len >= n), using
// the hooked tier's register-blocked batch kernel: one dispatch per block
// instead of one per row.
func L2SquaredBatch(q, data []float32, dim int, out []float32) {
	countCurrentBatch()
	active.Load().l2b(q, data, dim, out)
}

// NegDotBatch is DotBatch negated into distances (smaller = more similar),
// the batch analogue of NegDot for inner-product scans.
func NegDotBatch(q, data []float32, dim int, out []float32) {
	countCurrentBatch()
	active.Load().ipb(q, data, dim, out)
	n := len(data) / dim
	for i := 0; i < n; i++ {
		out[i] = -out[i]
	}
}

// L2SquaredBatchBound is L2SquaredBatch with early abandonment: a row whose
// partial sum reaches bound part-way through its dimensions is abandoned and
// reported as +Inf (its true distance provably >= bound, partial sums being
// monotone). Rows whose distance is below bound are reported exactly as
// L2SquaredBatch would. Callers feed the current top-k worst distance as
// bound so heap pruning reaches inside the block; bound = +Inf disables
// abandonment.
func L2SquaredBatchBound(q, data []float32, dim int, bound float32, out []float32) {
	countCurrentBatch()
	active.Load().l2bb(q, data, dim, bound, out)
}

// L2SquaredTile computes the full query×data distance tile: nq =
// len(queries)/dim contiguous queries against n = len(data)/dim rows, out
// laid out query-major (out[qi*n+i] = distance of query qi to row i, len >=
// nq*n). A data block loaded into cache is reused across the query block
// instead of being re-streamed per query — the blocking mechanism behind the
// paper's Eq. (1). The pure-Go tiers also register-block four queries per
// data row; the assembly tiers run their one-query batch kernel once per
// query over the cached block, so each distance is exactly the one
// L2SquaredBatch gives for that (query, row).
func L2SquaredTile(queries, data []float32, dim int, out []float32) {
	countCurrentBatch()
	active.Load().l2t(queries, data, dim, len(queries)/dim, out)
}

// NegDotTile is L2SquaredTile for inner products, negated into distances.
func NegDotTile(queries, data []float32, dim int, out []float32) {
	countCurrentBatch()
	nq := len(queries) / dim
	active.Load().ipt(queries, data, dim, nq, out)
	n := len(data) / dim
	for i := 0; i < nq*n; i++ {
		out[i] = -out[i]
	}
}

// L2SquaredBatchAt runs the batch kernel of an explicit tier (tests,
// benchmarks).
func L2SquaredBatchAt(l Level, q, data []float32, dim int, out []float32) {
	kernels[l].l2b(q, data, dim, out)
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 { return sqrt32(Dot(a, a)) }

// Normalize scales a in place to unit Euclidean norm. Zero vectors are left
// unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// CosineDistance returns 1 - cos(a, b) in [0, 2]. Zero vectors are treated as
// maximally distant from everything (distance 1).
func CosineDistance(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - Dot(a, b)/(na*nb)
}

func sqrt32(x float32) float32 {
	// Newton refinement over a float64 seed keeps this dependency-free and
	// exact to float32 precision.
	if x <= 0 {
		return 0
	}
	f := float64(x)
	g := f
	for i := 0; i < 32; i++ {
		ng := 0.5 * (g + f/g)
		if ng == g {
			break
		}
		g = ng
	}
	return float32(g)
}
