//go:build !purego

// Code-distance, min/max and encode kernels (amd64) behind the code grid
// (codes.go). The code kernels compute S = Σ (u_j − c_j)² exactly in
// int32 lanes: the uint8 codes are widened to int16 (VPMOVZXBW), the
// query's int16 grid point subtracted (VPSUBW), and the differences
// squared and summed pairwise into int32 (VPDPWSSD with AVX512-VNNI, else
// VPMADDWD + VPADDD). They cover dim rounded down to the chunk (32 dims
// for AVX-512, 16 for AVX2) and rows rounded down to four; the Go wrappers
// add the rest, so the result is the same integer on every tier.
//
// Two tile shapes per ISA (the head list kernels are at the end):
//
//   - rows: one query, four rows per pass, the query chunk held in a
//     register (the one-query scan);
//   - quad: four queries, one row per pass, each code chunk widened once
//     and subtracted from all four queries (the batch scan's tile).
//
// Both end a pass with the same reduction of four accumulators into one
// XMM of four int32 sums (REDUCE4Z / REDUCE4Y).

#include "textflag.h"

// REDUCE4Z folds Z0..Z3 (16 int32 lanes each) into X0 = [Σ0, Σ1, Σ2, Σ3].
#define REDUCE4Z \
	VEXTRACTI64X4 $1, Z0, Y8; \
	VPADDD        Y8, Y0, Y0; \
	VEXTRACTI64X4 $1, Z1, Y9; \
	VPADDD        Y9, Y1, Y1; \
	VEXTRACTI64X4 $1, Z2, Y10; \
	VPADDD        Y10, Y2, Y2; \
	VEXTRACTI64X4 $1, Z3, Y11; \
	VPADDD        Y11, Y3, Y3; \
	REDUCE4Y

// REDUCE4Y folds Y0..Y3 (8 int32 lanes each) into X0 = [Σ0, Σ1, Σ2, Σ3].
#define REDUCE4Y \
	VPHADDD      Y1, Y0, Y0; \
	VPHADDD      Y3, Y2, Y2; \
	VPHADDD      Y2, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDD       X1, X0, X0

// Square-accumulate of the int16 differences in t into acc.
#define SQV(t, acc) VPDPWSSD t, t, acc
#define SQM(t, acc) VPMADDWD t, t, t; VPADDD t, acc, acc
#define SQY(t, acc) VPMADDWD t, t, t; VPADDD t, acc, acc

// CODEROWSZ: u = SI, codes = DI, out = DX, dim = CX (a multiple of 32,
// > 0), stride = R9 (bytes per code row), n = BX (a multiple of 4).
#define CODEROWSZ(SQ) \
	MOVQ u+0(FP), SI; \
	MOVQ codes+8(FP), DI; \
	MOVQ out+16(FP), DX; \
	MOVQ dim+24(FP), CX; \
	MOVQ stride+32(FP), R9; \
	MOVQ n+40(FP), BX; \
row: \
	TESTQ BX, BX; \
	JE    done; \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	LEAQ  (DI)(R9*1), R11; \
	LEAQ  (R11)(R9*1), R12; \
	LEAQ  (R12)(R9*1), R13; \
	XORQ  AX, AX; \
chunk: \
	VMOVDQU16 (SI)(AX*2), Z8; \
	VPMOVZXBW (DI)(AX*1), Z4; \
	VPMOVZXBW (R11)(AX*1), Z5; \
	VPMOVZXBW (R12)(AX*1), Z6; \
	VPMOVZXBW (R13)(AX*1), Z7; \
	VPSUBW    Z8, Z4, Z4; \
	VPSUBW    Z8, Z5, Z5; \
	VPSUBW    Z8, Z6, Z6; \
	VPSUBW    Z8, Z7, Z7; \
	SQ(Z4, Z0); \
	SQ(Z5, Z1); \
	SQ(Z6, Z2); \
	SQ(Z7, Z3); \
	ADDQ $32, AX; \
	CMPQ AX, CX; \
	JB   chunk; \
	REDUCE4Z; \
	VMOVDQU X0, (DX); \
	ADDQ  $16, DX; \
	LEAQ  (R13)(R9*1), DI; \
	SUBQ  $4, BX; \
	JMP   row; \
done: \
	VZEROUPPER; \
	RET

// CODEQUADZ: u0 = SI with the four queries ustride = R8 bytes apart,
// codes = DI, out0 = DX with the four queries' outputs ostride = R14
// bytes apart, dim = CX (a multiple of 32, > 0), stride = R9, n = BX.
#define CODEQUADZ(SQ) \
	MOVQ u+0(FP), R10; \
	MOVQ ustride+8(FP), R8; \
	MOVQ codes+16(FP), DI; \
	MOVQ out+24(FP), DX; \
	MOVQ ostride+32(FP), R14; \
	MOVQ dim+40(FP), CX; \
	MOVQ stride+48(FP), R9; \
	MOVQ n+56(FP), BX; \
	LEAQ (R10)(R8*1), R11; \
	LEAQ (R11)(R8*1), R12; \
	LEAQ (R12)(R8*1), R13; \
	LEAQ (R14)(R14*2), SI; \
row: \
	TESTQ BX, BX; \
	JE    done; \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	XORQ  AX, AX; \
chunk: \
	VPMOVZXBW (DI)(AX*1), Z4; \
	VPSUBW    (R10)(AX*2), Z4, Z5; \
	VPSUBW    (R11)(AX*2), Z4, Z6; \
	VPSUBW    (R12)(AX*2), Z4, Z7; \
	VPSUBW    (R13)(AX*2), Z4, Z12; \
	SQ(Z5, Z0); \
	SQ(Z6, Z1); \
	SQ(Z7, Z2); \
	SQ(Z12, Z3); \
	ADDQ $32, AX; \
	CMPQ AX, CX; \
	JB   chunk; \
	REDUCE4Z; \
	VMOVD   X0, (DX); \
	VPEXTRD $1, X0, (DX)(R14*1); \
	VPEXTRD $2, X0, (DX)(R14*2); \
	VPEXTRD $3, X0, (DX)(SI*1); \
	ADDQ  $4, DX; \
	ADDQ  R9, DI; \
	DECQ  BX; \
	JMP   row; \
done: \
	VZEROUPPER; \
	RET

// func codeRowsZV(u *int16, codes *uint8, out *int32, dim, stride, n int)
TEXT ·codeRowsZV(SB), NOSPLIT, $0-48
	CODEROWSZ(SQV)

// func codeRowsZM(u *int16, codes *uint8, out *int32, dim, stride, n int)
TEXT ·codeRowsZM(SB), NOSPLIT, $0-48
	CODEROWSZ(SQM)

// func codeQuadZV(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)
TEXT ·codeQuadZV(SB), NOSPLIT, $0-64
	CODEQUADZ(SQV)

// func codeQuadZM(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)
TEXT ·codeQuadZM(SB), NOSPLIT, $0-64
	CODEQUADZ(SQM)

// func codeRowsY(u *int16, codes *uint8, out *int32, dim, stride, n int)
// As CODEROWSZ over 16-dim chunks in YMM registers.
TEXT ·codeRowsY(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ codes+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ stride+32(FP), R9
	MOVQ n+40(FP), BX

cry_row:
	TESTQ BX, BX
	JE    cry_done
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	LEAQ  (DI)(R9*1), R11
	LEAQ  (R11)(R9*1), R12
	LEAQ  (R12)(R9*1), R13
	XORQ  AX, AX

cry_chunk:
	VMOVDQU   (SI)(AX*2), Y8
	VPMOVZXBW (DI)(AX*1), Y4
	VPMOVZXBW (R11)(AX*1), Y5
	VPMOVZXBW (R12)(AX*1), Y6
	VPMOVZXBW (R13)(AX*1), Y7
	VPSUBW    Y8, Y4, Y4
	VPSUBW    Y8, Y5, Y5
	VPSUBW    Y8, Y6, Y6
	VPSUBW    Y8, Y7, Y7
	SQY(Y4, Y0)
	SQY(Y5, Y1)
	SQY(Y6, Y2)
	SQY(Y7, Y3)
	ADDQ $16, AX
	CMPQ AX, CX
	JB   cry_chunk
	REDUCE4Y
	VMOVDQU X0, (DX)
	ADDQ    $16, DX
	LEAQ    (R13)(R9*1), DI
	SUBQ    $4, BX
	JMP     cry_row

cry_done:
	VZEROUPPER
	RET

// func codeQuadY(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)
// As CODEQUADZ over 16-dim chunks in YMM registers.
TEXT ·codeQuadY(SB), NOSPLIT, $0-64
	MOVQ u+0(FP), R10
	MOVQ ustride+8(FP), R8
	MOVQ codes+16(FP), DI
	MOVQ out+24(FP), DX
	MOVQ ostride+32(FP), R14
	MOVQ dim+40(FP), CX
	MOVQ stride+48(FP), R9
	MOVQ n+56(FP), BX
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R14)(R14*2), SI

cqy_row:
	TESTQ BX, BX
	JE    cqy_done
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

cqy_chunk:
	VPMOVZXBW (DI)(AX*1), Y4
	VPSUBW    (R10)(AX*2), Y4, Y5
	VPSUBW    (R11)(AX*2), Y4, Y6
	VPSUBW    (R12)(AX*2), Y4, Y7
	VPSUBW    (R13)(AX*2), Y4, Y12
	SQY(Y5, Y0)
	SQY(Y6, Y1)
	SQY(Y7, Y2)
	SQY(Y12, Y3)
	ADDQ $16, AX
	CMPQ AX, CX
	JB   cqy_chunk
	REDUCE4Y
	VMOVD   X0, (DX)
	VPEXTRD $1, X0, (DX)(R14*1)
	VPEXTRD $2, X0, (DX)(R14*2)
	VPEXTRD $3, X0, (DX)(SI*1)
	ADDQ    $4, DX
	ADDQ    R9, DI
	DECQ    BX
	JMP     cqy_row

cqy_done:
	VZEROUPPER
	RET

// func minMaxZ(data *float32, n int) (lo, hi, bad float32)
// n is a multiple of 64, > 0. bad is the sum of every x − x: 0 when all
// values are finite, NaN otherwise (VMINPS/VMAXPS may drop a NaN). The
// four quarters of data stream side by side, one vector of each a pass
// into two accumulator pairs: four streams keep more loads in flight than
// one.
TEXT ·minMaxZ(SB), NOSPLIT, $0-28
	MOVQ    data+0(FP), SI
	MOVQ    n+8(FP), BX
	SHRQ    $2, BX
	LEAQ    (SI)(BX*4), R8
	LEAQ    (R8)(BX*4), R9
	LEAQ    (R9)(BX*4), R10
	VMOVUPS (SI), Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	XORQ    AX, AX

mmz_four:
	VMOVUPS (SI)(AX*4), Z4
	VMOVUPS (R8)(AX*4), Z5
	VMOVUPS (R9)(AX*4), Z8
	VMOVUPS (R10)(AX*4), Z9
	VMINPS  Z4, Z0, Z0
	VMAXPS  Z4, Z1, Z1
	VMINPS  Z5, Z6, Z6
	VMAXPS  Z5, Z7, Z7
	VMINPS  Z8, Z0, Z0
	VMAXPS  Z8, Z1, Z1
	VMINPS  Z9, Z6, Z6
	VMAXPS  Z9, Z7, Z7
	VSUBPS  Z4, Z4, Z4
	VSUBPS  Z5, Z5, Z5
	VSUBPS  Z8, Z8, Z8
	VSUBPS  Z9, Z9, Z9
	VADDPS  Z4, Z2, Z2
	VADDPS  Z5, Z3, Z3
	VADDPS  Z8, Z2, Z2
	VADDPS  Z9, Z3, Z3
	ADDQ    $16, AX
	CMPQ    AX, BX
	JB      mmz_four

mmz_fold:
	VMINPS  Z6, Z0, Z0
	VMAXPS  Z7, Z1, Z1
	VADDPS  Z3, Z2, Z2
	VEXTRACTF64X4 $1, Z0, Y4
	VMINPS        Y4, Y0, Y0
	VEXTRACTF64X4 $1, Z1, Y5
	VMAXPS        Y5, Y1, Y1
	VEXTRACTF64X4 $1, Z2, Y6
	VADDPS        Y6, Y2, Y2
	VEXTRACTF128  $1, Y0, X4
	VMINPS        X4, X0, X0
	VEXTRACTF128  $1, Y1, X5
	VMAXPS        X5, X1, X1
	VEXTRACTF128  $1, Y2, X6
	VADDPS        X6, X2, X2
	VMOVHLPS      X0, X0, X4
	VMINPS        X4, X0, X0
	VMOVHLPS      X1, X1, X5
	VMAXPS        X5, X1, X1
	VMOVHLPS      X2, X2, X6
	VADDPS        X6, X2, X2
	VMOVSHDUP     X0, X4
	VMINSS        X4, X0, X0
	VMOVSHDUP     X1, X5
	VMAXSS        X5, X1, X1
	VMOVSHDUP     X2, X6
	VADDSS        X6, X2, X2
	VMOVSS        X0, lo+16(FP)
	VMOVSS        X1, hi+20(FP)
	VMOVSS        X2, bad+24(FP)
	VZEROUPPER
	RET

// func encodeZ(data *float32, out *uint8, n int, lo, inv float32)
// n is a multiple of 64, > 0. Each code is (x − lo)·inv clamped to
// [0, 255] and rounded half to even (VCVTPS2DQ under the default MXCSR).
// The quarters stream side by side, as in minMaxZ.
TEXT ·encodeZ(SB), NOSPLIT, $0-32
	MOVQ         data+0(FP), SI
	MOVQ         out+8(FP), DI
	MOVQ         n+16(FP), BX
	VBROADCASTSS lo+24(FP), Z1
	VBROADCASTSS inv+28(FP), Z2
	VPXORD       Z3, Z3, Z3
	MOVL         $0x437f0000, AX // 255.0
	VPBROADCASTD AX, Z4
	SHRQ         $2, BX
	LEAQ         (SI)(BX*4), R8
	LEAQ         (R8)(BX*4), R9
	LEAQ         (R9)(BX*4), R10
	LEAQ         (DI)(BX*1), R11
	LEAQ         (R11)(BX*1), R12
	LEAQ         (R12)(BX*1), R13
	XORQ         AX, AX

encz_four:
	VMOVUPS   (SI)(AX*4), Z0
	VMOVUPS   (R8)(AX*4), Z5
	VMOVUPS   (R9)(AX*4), Z6
	VMOVUPS   (R10)(AX*4), Z7
	VSUBPS    Z1, Z0, Z0
	VSUBPS    Z1, Z5, Z5
	VSUBPS    Z1, Z6, Z6
	VSUBPS    Z1, Z7, Z7
	VMULPS    Z2, Z0, Z0
	VMULPS    Z2, Z5, Z5
	VMULPS    Z2, Z6, Z6
	VMULPS    Z2, Z7, Z7
	VMAXPS    Z3, Z0, Z0
	VMAXPS    Z3, Z5, Z5
	VMAXPS    Z3, Z6, Z6
	VMAXPS    Z3, Z7, Z7
	VMINPS    Z4, Z0, Z0
	VMINPS    Z4, Z5, Z5
	VMINPS    Z4, Z6, Z6
	VMINPS    Z4, Z7, Z7
	VCVTPS2DQ Z0, Z0
	VCVTPS2DQ Z5, Z5
	VCVTPS2DQ Z6, Z6
	VCVTPS2DQ Z7, Z7
	VPMOVDB   Z0, (DI)(AX*1)
	VPMOVDB   Z5, (R11)(AX*1)
	VPMOVDB   Z6, (R12)(AX*1)
	VPMOVDB   Z7, (R13)(AX*1)
	ADDQ      $16, AX
	CMPQ      AX, BX
	JB        encz_four

encz_done:
	VZEROUPPER
	RET

// func minMaxY(data *float32, n int) (lo, hi, bad float32)
// As minMaxZ over 8-float YMM chunks; n is a multiple of 8, > 0.
TEXT ·minMaxY(SB), NOSPLIT, $0-28
	MOVQ    data+0(FP), SI
	MOVQ    n+8(FP), BX
	VMOVUPS (SI), Y0
	VMOVAPS Y0, Y1
	VXORPS  Y2, Y2, Y2

mmy_loop:
	VMOVUPS (SI), Y4
	VMINPS  Y4, Y0, Y0
	VMAXPS  Y4, Y1, Y1
	VSUBPS  Y4, Y4, Y5
	VADDPS  Y5, Y2, Y2
	ADDQ    $32, SI
	SUBQ    $8, BX
	JNE     mmy_loop
	VEXTRACTF128 $1, Y0, X4
	VMINPS       X4, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VMAXPS       X5, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPS       X6, X2, X2
	VMOVHLPS     X0, X0, X4
	VMINPS       X4, X0, X0
	VMOVHLPS     X1, X1, X5
	VMAXPS       X5, X1, X1
	VMOVHLPS     X2, X2, X6
	VADDPS       X6, X2, X2
	VMOVSHDUP    X0, X4
	VMINSS       X4, X0, X0
	VMOVSHDUP    X1, X5
	VMAXSS       X5, X1, X1
	VMOVSHDUP    X2, X6
	VADDSS       X6, X2, X2
	VMOVSS       X0, lo+16(FP)
	VMOVSS       X1, hi+20(FP)
	VMOVSS       X2, bad+24(FP)
	VZEROUPPER
	RET

// func encodeY(data *float32, out *uint8, n int, lo, inv float32)
// As encodeZ, 16 values per pass: two YMM conversions packed to words
// (VPACKUSDW, lane-wise, put back in order by VPERMQ) and then to bytes.
TEXT ·encodeY(SB), NOSPLIT, $0-32
	MOVQ         data+0(FP), SI
	MOVQ         out+8(FP), DI
	MOVQ         n+16(FP), BX
	VBROADCASTSS lo+24(FP), Y1
	VBROADCASTSS inv+28(FP), Y2
	VXORPS       Y3, Y3, Y3
	MOVL         $0x437f0000, AX // 255.0
	VMOVD        AX, X4
	VBROADCASTSS X4, Y4

ency_loop:
	TESTQ        BX, BX
	JE           ency_done
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y5
	VSUBPS       Y1, Y0, Y0
	VSUBPS       Y1, Y5, Y5
	VMULPS       Y2, Y0, Y0
	VMULPS       Y2, Y5, Y5
	VMAXPS       Y3, Y0, Y0
	VMAXPS       Y3, Y5, Y5
	VMINPS       Y4, Y0, Y0
	VMINPS       Y4, Y5, Y5
	VCVTPS2DQ    Y0, Y0
	VCVTPS2DQ    Y5, Y5
	VPACKUSDW    Y5, Y0, Y0
	VPERMQ       $0xd8, Y0, Y0
	VEXTRACTI128 $1, Y0, X5
	VPACKUSWB    X5, X0, X0
	VMOVDQU      X0, (DI)
	ADDQ         $64, SI
	ADDQ         $16, DI
	SUBQ         $16, BX
	JMP          ency_loop

ency_done:
	VZEROUPPER
	RET

// Head list kernels (vec.Codes.HeadList): each head panel holds 16 rows'
// first 32 codes dim-pair-major (32 bytes per pair of dims, rows side by
// side), so one widened pair of dims minus the query's broadcast pair,
// squared and summed pairwise, adds each row's two squares into its own
// int32 lane: 16 pair passes leave 16 rows' head S in one register, with
// no horizontal sum. A row is listed when any member's S is within that
// member's threshold (signed: −1 lists nothing); the kernels write the
// listed rows' offsets ascending from live and return how many. The last
// panel's rows past n are listed like any other; the Go wrapper trims
// them. The AVX-512 kernels list with one VPCOMPRESSD per panel and
// store all 16 lanes, so live needs room for every panel's rows.

// Offsets 0..15: the compressed lanes of a panel's first row.
DATA headIota<>+0(SB)/4, $0
DATA headIota<>+4(SB)/4, $1
DATA headIota<>+8(SB)/4, $2
DATA headIota<>+12(SB)/4, $3
DATA headIota<>+16(SB)/4, $4
DATA headIota<>+20(SB)/4, $5
DATA headIota<>+24(SB)/4, $6
DATA headIota<>+28(SB)/4, $7
DATA headIota<>+32(SB)/4, $8
DATA headIota<>+36(SB)/4, $9
DATA headIota<>+40(SB)/4, $10
DATA headIota<>+44(SB)/4, $11
DATA headIota<>+48(SB)/4, $12
DATA headIota<>+52(SB)/4, $13
DATA headIota<>+56(SB)/4, $14
DATA headIota<>+60(SB)/4, $15
GLOBL headIota<>(SB), RODATA|NOPTR, $64

// HSOLO: one pair of dims at off(SI) against the query pair held in U,
// into ACC. HMEM: the pair already widened in C against the member pair
// at uoff(R10).
#define HSOLO(SQ, off, U, ACC) \
	VPMOVZXBW off(SI), Z4; \
	VPSUBW    U, Z4, Z4; \
	SQ(Z4, ACC)
#define HMEM(SQ, uoff, C, ACC) \
	VPBROADCASTD uoff(R10), Z4; \
	VPSUBW       Z4, C, Z4; \
	SQ(Z4, ACC)

// LISTZ stores the offsets (Z15) of the rows set in K at DX, advances DX
// past them and the offsets to the next panel.
#define LISTZ(K) \
	VPCOMPRESSD Z15, K, Z2; \
	VMOVDQU32   Z2, (DX); \
	KMOVW       K, AX; \
	POPCNTL     AX, AX; \
	LEAQ        (DX)(AX*4), DX; \
	VPADDD      Z13, Z15, Z15; \
	ADDQ        $512, SI

// HEADLISTZ: uh = R8 (m members' grid points, 32 int16 each), ts = R9,
// m = CX, panels = SI, np = BX (> 0) panels, live = DX. A lone query
// holds its 16 pairs in Z16–Z31 for the whole run; a batch widens each
// panel's 16 pairs into Z16–Z31 once and ORs its members' masks.
#define HEADLISTZ(SQ) \
	MOVQ         uh+0(FP), R8; \
	MOVQ         ts+8(FP), R9; \
	MOVQ         m+16(FP), CX; \
	MOVQ         panels+24(FP), SI; \
	MOVQ         np+32(FP), BX; \
	MOVQ         live+40(FP), DX; \
	VMOVDQU32    headIota<>(SB), Z15; \
	MOVL         $16, AX; \
	VPBROADCASTD AX, Z13; \
	CMPQ         CX, $1; \
	JNE          multi; \
	VPBROADCASTD (R9), Z14; \
	VPBROADCASTD 0(R8), Z16; \
	VPBROADCASTD 4(R8), Z17; \
	VPBROADCASTD 8(R8), Z18; \
	VPBROADCASTD 12(R8), Z19; \
	VPBROADCASTD 16(R8), Z20; \
	VPBROADCASTD 20(R8), Z21; \
	VPBROADCASTD 24(R8), Z22; \
	VPBROADCASTD 28(R8), Z23; \
	VPBROADCASTD 32(R8), Z24; \
	VPBROADCASTD 36(R8), Z25; \
	VPBROADCASTD 40(R8), Z26; \
	VPBROADCASTD 44(R8), Z27; \
	VPBROADCASTD 48(R8), Z28; \
	VPBROADCASTD 52(R8), Z29; \
	VPBROADCASTD 56(R8), Z30; \
	VPBROADCASTD 60(R8), Z31; \
solo: \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	HSOLO(SQ, 0, Z16, Z0); \
	HSOLO(SQ, 32, Z17, Z1); \
	HSOLO(SQ, 64, Z18, Z0); \
	HSOLO(SQ, 96, Z19, Z1); \
	HSOLO(SQ, 128, Z20, Z0); \
	HSOLO(SQ, 160, Z21, Z1); \
	HSOLO(SQ, 192, Z22, Z0); \
	HSOLO(SQ, 224, Z23, Z1); \
	HSOLO(SQ, 256, Z24, Z0); \
	HSOLO(SQ, 288, Z25, Z1); \
	HSOLO(SQ, 320, Z26, Z0); \
	HSOLO(SQ, 352, Z27, Z1); \
	HSOLO(SQ, 384, Z28, Z0); \
	HSOLO(SQ, 416, Z29, Z1); \
	HSOLO(SQ, 448, Z30, Z0); \
	HSOLO(SQ, 480, Z31, Z1); \
	VPADDD  Z1, Z0, Z0; \
	VPCMPD  $2, Z14, Z0, K1; \
	LISTZ(K1); \
	DECQ    BX; \
	JNZ     solo; \
	JMP     done; \
multi: \
	VPMOVZXBW 0(SI), Z16; \
	VPMOVZXBW 32(SI), Z17; \
	VPMOVZXBW 64(SI), Z18; \
	VPMOVZXBW 96(SI), Z19; \
	VPMOVZXBW 128(SI), Z20; \
	VPMOVZXBW 160(SI), Z21; \
	VPMOVZXBW 192(SI), Z22; \
	VPMOVZXBW 224(SI), Z23; \
	VPMOVZXBW 256(SI), Z24; \
	VPMOVZXBW 288(SI), Z25; \
	VPMOVZXBW 320(SI), Z26; \
	VPMOVZXBW 352(SI), Z27; \
	VPMOVZXBW 384(SI), Z28; \
	VPMOVZXBW 416(SI), Z29; \
	VPMOVZXBW 448(SI), Z30; \
	VPMOVZXBW 480(SI), Z31; \
	KXORW K2, K2, K2; \
	MOVQ  R8, R10; \
	MOVQ  R9, R11; \
	MOVQ  CX, R12; \
member: \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	HMEM(SQ, 0, Z16, Z0); \
	HMEM(SQ, 4, Z17, Z1); \
	HMEM(SQ, 8, Z18, Z0); \
	HMEM(SQ, 12, Z19, Z1); \
	HMEM(SQ, 16, Z20, Z0); \
	HMEM(SQ, 20, Z21, Z1); \
	HMEM(SQ, 24, Z22, Z0); \
	HMEM(SQ, 28, Z23, Z1); \
	HMEM(SQ, 32, Z24, Z0); \
	HMEM(SQ, 36, Z25, Z1); \
	HMEM(SQ, 40, Z26, Z0); \
	HMEM(SQ, 44, Z27, Z1); \
	HMEM(SQ, 48, Z28, Z0); \
	HMEM(SQ, 52, Z29, Z1); \
	HMEM(SQ, 56, Z30, Z0); \
	HMEM(SQ, 60, Z31, Z1); \
	VPADDD       Z1, Z0, Z0; \
	VPBROADCASTD (R11), Z14; \
	VPCMPD       $2, Z14, Z0, K1; \
	KORW         K1, K2, K2; \
	ADDQ         $64, R10; \
	ADDQ         $4, R11; \
	DECQ         R12; \
	JNZ          member; \
	LISTZ(K2); \
	DECQ         BX; \
	JNZ          multi; \
done: \
	MOVQ live+40(FP), AX; \
	SUBQ AX, DX; \
	SHRQ $2, DX; \
	MOVQ DX, ret+48(FP); \
	VZEROUPPER; \
	RET

// func headListZV(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int
TEXT ·headListZV(SB), NOSPLIT, $0-56
	HEADLISTZ(SQV)

// func headListZM(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int
TEXT ·headListZM(SB), NOSPLIT, $0-56
	HEADLISTZ(SQM)

// HY: one pair of dims at off(SI) (rows 0–7) and off+16(SI) (rows 8–15)
// against the member pair at uoff(R10), into Y0 and Y1.
#define HY(off, hi, uoff) \
	VPBROADCASTD uoff(R10), Y4; \
	VPMOVZXBW    off(SI), Y5; \
	VPMOVZXBW    hi(SI), Y6; \
	VPSUBW       Y4, Y5, Y5; \
	VPSUBW       Y4, Y6, Y6; \
	SQY(Y5, Y0); \
	SQY(Y6, Y1)

// func headListY(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int
// As HEADLISTZ in two YMM halves per panel, each member's pairs loaded as
// it goes. A member's mask comes from VMOVMSKPS of the rows whose S is
// above its threshold, inverted; the panel's listed rows are written one
// set bit at a time.
TEXT ·headListY(SB), NOSPLIT, $0-56
	MOVQ uh+0(FP), R8
	MOVQ ts+8(FP), R9
	MOVQ m+16(FP), CX
	MOVQ panels+24(FP), SI
	MOVQ np+32(FP), BX
	MOVQ live+40(FP), DX
	XORL R13, R13 // the panel's first row

hly_panel:
	XORL R12, R12 // the panel's listed rows, a bit each
	MOVQ R8, R10
	MOVQ R9, R11
	MOVQ CX, R14

hly_member:
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1
	HY(0, 16, 0)
	HY(32, 48, 4)
	HY(64, 80, 8)
	HY(96, 112, 12)
	HY(128, 144, 16)
	HY(160, 176, 20)
	HY(192, 208, 24)
	HY(224, 240, 28)
	HY(256, 272, 32)
	HY(288, 304, 36)
	HY(320, 336, 40)
	HY(352, 368, 44)
	HY(384, 400, 48)
	HY(416, 432, 52)
	HY(448, 464, 56)
	HY(480, 496, 60)
	VPBROADCASTD (R11), Y7
	VPCMPGTD     Y7, Y0, Y0
	VPCMPGTD     Y7, Y1, Y1
	VMOVMSKPS    Y0, AX
	VMOVMSKPS    Y1, DI
	SHLL         $8, DI
	ORL          DI, AX
	NOTL         AX
	ANDL         $0xffff, AX
	ORL          AX, R12
	ADDQ         $64, R10
	ADDQ         $4, R11
	DECQ         R14
	JNZ          hly_member
	TESTL        R12, R12
	JZ           hly_next

hly_bit:
	BSFL R12, AX
	ADDL R13, AX
	MOVL AX, (DX)
	ADDQ $4, DX
	LEAL -1(R12), AX
	ANDL AX, R12
	JNZ  hly_bit

hly_next:
	ADDL $16, R13
	ADDQ $512, SI
	DECQ BX
	JNZ  hly_panel
	MOVQ live+40(FP), AX
	SUBQ AX, DX
	SHRQ $2, DX
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET
