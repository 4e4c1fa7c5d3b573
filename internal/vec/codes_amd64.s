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
// Two shapes per ISA:
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
