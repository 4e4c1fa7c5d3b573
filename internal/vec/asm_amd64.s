//go:build !purego

// AVX2/FMA and AVX-512 batch distance kernels (amd64). These are the real
// SIMD implementations behind the LevelAVX2/LevelAVX512 batch entry points;
// the pure-Go register-blocked kernels remain the portable fallback and the
// reference semantics. The AVX-512 kernels, at the end of the file, score
// 8 rows per pass; their layout is described there. Layout of each AVX2
// kernel:
//
//   - outer loop over n rows of the row-major block;
//   - inner loop over dim in 4 vector-register chunks with independent
//     accumulators (VFMADD231PS), then single-chunk steps, then a scalar
//     VEX tail for dim % lanes;
//   - horizontal reduction into out[i].
//
// Unaligned loads (VMOVUPS) throughout: callers hand arbitrary subslices.
// For L2 the operand order of VSUBPS is irrelevant (the difference is
// squared). NaN/Inf propagate per IEEE exactly as in the Go kernels; only
// summation order differs, which the package's 1e-5 relative tolerance
// doctrine covers.

#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func l2BatchFMA(q, data, out *float32, dim, n int)
TEXT ·l2BatchFMA(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ data+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ n+32(FP), BX

l2f_row:
	TESTQ BX, BX
	JE   l2f_done
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ CX, R8

l2f_chunk32:
	CMPQ R8, $32
	JLT  l2f_chunk8
	VMOVUPS (R10), Y0
	VMOVUPS (R11), Y1
	VSUBPS  Y1, Y0, Y0
	VFMADD231PS Y0, Y0, Y4
	VMOVUPS 32(R10), Y1
	VMOVUPS 32(R11), Y2
	VSUBPS  Y2, Y1, Y1
	VFMADD231PS Y1, Y1, Y5
	VMOVUPS 64(R10), Y2
	VMOVUPS 64(R11), Y3
	VSUBPS  Y3, Y2, Y2
	VFMADD231PS Y2, Y2, Y6
	VMOVUPS 96(R10), Y3
	VMOVUPS 96(R11), Y0
	VSUBPS  Y0, Y3, Y3
	VFMADD231PS Y3, Y3, Y7
	ADDQ $128, R10
	ADDQ $128, R11
	SUBQ $32, R8
	JMP  l2f_chunk32

l2f_chunk8:
	CMPQ R8, $8
	JLT  l2f_reduce
	VMOVUPS (R10), Y0
	VMOVUPS (R11), Y1
	VSUBPS  Y1, Y0, Y0
	VFMADD231PS Y0, Y0, Y4
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, R8
	JMP  l2f_chunk8

l2f_reduce:
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X1
	VADDPS X1, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4

	TESTQ R8, R8
	JE   l2f_store

l2f_scalar:
	VMOVSS (R10), X1
	VMOVSS (R11), X2
	VSUBSS X2, X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X4, X4
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ R8
	JNE  l2f_scalar

l2f_store:
	VMOVSS X4, (DX)
	ADDQ $4, DX
	MOVQ R11, DI
	DECQ BX
	JMP  l2f_row

l2f_done:
	VZEROUPPER
	RET

// func ipBatchFMA(q, data, out *float32, dim, n int)
TEXT ·ipBatchFMA(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), SI
	MOVQ data+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ n+32(FP), BX

ipf_row:
	TESTQ BX, BX
	JE   ipf_done
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ CX, R8

ipf_chunk32:
	CMPQ R8, $32
	JLT  ipf_chunk8
	VMOVUPS (R10), Y0
	VMOVUPS (R11), Y1
	VFMADD231PS Y1, Y0, Y4
	VMOVUPS 32(R10), Y2
	VMOVUPS 32(R11), Y3
	VFMADD231PS Y3, Y2, Y5
	VMOVUPS 64(R10), Y0
	VMOVUPS 64(R11), Y1
	VFMADD231PS Y1, Y0, Y6
	VMOVUPS 96(R10), Y2
	VMOVUPS 96(R11), Y3
	VFMADD231PS Y3, Y2, Y7
	ADDQ $128, R10
	ADDQ $128, R11
	SUBQ $32, R8
	JMP  ipf_chunk32

ipf_chunk8:
	CMPQ R8, $8
	JLT  ipf_reduce
	VMOVUPS (R10), Y0
	VMOVUPS (R11), Y1
	VFMADD231PS Y1, Y0, Y4
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, R8
	JMP  ipf_chunk8

ipf_reduce:
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X1
	VADDPS X1, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4

	TESTQ R8, R8
	JE   ipf_store

ipf_scalar:
	VMOVSS (R10), X1
	VMOVSS (R11), X2
	VMULSS X2, X1, X1
	VADDSS X1, X4, X4
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ R8
	JNE  ipf_scalar

ipf_store:
	VMOVSS X4, (DX)
	ADDQ $4, DX
	MOVQ R11, DI
	DECQ BX
	JMP  ipf_row

ipf_done:
	VZEROUPPER
	RET

// AVX-512 kernels: rows are scored in groups of 8, one accumulator per row
// (Z0–Z7, row pointers AX DI R8–R13), each row read front to back. The
// query sits in Z16–Z23 in panels of up to 8 chunks of 16 floats: one fully
// unrolled body per chunk count (8, 4, 2, 1) loads a panel (from L1, once
// per group) and streams the 8 rows against it, and a dim above 128 runs several bodies per group,
// the accumulators carrying across them. A body's last chunk is loaded
// under the mask K1 — all 16 lanes, or the dim%16 lanes of the row's last
// partial chunk, zero-masked, so nothing past a row is read. The 8
// accumulators are then reduced together and stored with one masked
// store. Leftover rows (n%8) run the same body on a group whose missing
// rows repeat the last real one, under a store mask. Rows shorter than one
// chunk are summed one dim at a time, front to back: the order of the
// pure-Go pairwise kernels at those dims, so the two agree bit for bit
// there. Either way a row's distance is a pure function of (query, row),
// whatever n, the row's place in the block, or the entry point
// (TestRowDistanceInvariance).

// One row against one query chunk q at byte offset off: p is the row
// pointer, t a scratch register, acc the row's accumulator. The M forms
// load under K1.
#define L2ROW(off, p, q, t, acc) VSUBPS off(p), q, t; VFMADD231PS t, t, acc
#define L2ROWM(off, p, q, t, acc) VSUBPS.Z off(p), q, K1, t; VFMADD231PS t, t, acc
#define IPROW(off, p, q, t, acc) VFMADD231PS off(p), q, acc
#define IPROWM(off, p, q, t, acc) VFMADD231PS off(p), q, K1, acc

#define ROWS8(ROW, off, q) \
	ROW(off, AX, q, Z8, Z0); ROW(off, DI, q, Z9, Z1); \
	ROW(off, R8, q, Z10, Z2); ROW(off, R9, q, Z11, Z3); \
	ROW(off, R10, q, Z12, Z4); ROW(off, R11, q, Z13, Z5); \
	ROW(off, R12, q, Z14, Z6); ROW(off, R13, q, Z15, Z7)

// ADVANCE moves the query cursor and the 8 row pointers n bytes on.
#define ADVANCE(n) \
	ADDQ $n, SI; ADDQ $n, AX; ADDQ $n, DI; ADDQ $n, R8; ADDQ $n, R9; \
	ADDQ $n, R10; ADDQ $n, R11; ADDQ $n, R12; ADDQ $n, R13

#define BODY1(ROW, ROWM) \
	VMOVUPS.Z (SI), K1, Z16; \
	ROWS8(ROWM, 0, Z16); \
	ADVANCE(64)

#define BODY2(ROW, ROWM) \
	VMOVUPS (SI), Z16; VMOVUPS.Z 64(SI), K1, Z17; \
	ROWS8(ROW, 0, Z16); ROWS8(ROWM, 64, Z17); \
	ADVANCE(128)

#define BODY4(ROW, ROWM) \
	VMOVUPS (SI), Z16; VMOVUPS 64(SI), Z17; \
	VMOVUPS 128(SI), Z18; VMOVUPS.Z 192(SI), K1, Z19; \
	ROWS8(ROW, 0, Z16); ROWS8(ROW, 64, Z17); \
	ROWS8(ROW, 128, Z18); ROWS8(ROWM, 192, Z19); \
	ADVANCE(256)

#define BODY8(ROW, ROWM) \
	VMOVUPS (SI), Z16; VMOVUPS 64(SI), Z17; \
	VMOVUPS 128(SI), Z18; VMOVUPS 192(SI), Z19; \
	VMOVUPS 256(SI), Z20; VMOVUPS 320(SI), Z21; \
	VMOVUPS 384(SI), Z22; VMOVUPS.Z 448(SI), K1, Z23; \
	ROWS8(ROW, 0, Z16); ROWS8(ROW, 64, Z17); \
	ROWS8(ROW, 128, Z18); ROWS8(ROW, 192, Z19); \
	ROWS8(ROW, 256, Z20); ROWS8(ROW, 320, Z21); \
	ROWS8(ROW, 384, Z22); ROWS8(ROWM, 448, Z23); \
	ADVANCE(512)

// REDUCE8 folds each accumulator to a ymm, then a VHADDPS tree leaves rows
// 0–3 (Y0) and 4–7 (Y4) as low/high lane halves, and one cross-lane swap
// and add finishes all 8 in row order in Y0.
#define FOLD(z, y, t) VEXTRACTF64X4 $1, z, t; VADDPS t, y, y
#define REDUCE8 \
	FOLD(Z0, Y0, Y8); FOLD(Z1, Y1, Y9); FOLD(Z2, Y2, Y10); FOLD(Z3, Y3, Y11); \
	FOLD(Z4, Y4, Y12); FOLD(Z5, Y5, Y13); FOLD(Z6, Y6, Y14); FOLD(Z7, Y7, Y15); \
	VHADDPS Y1, Y0, Y0; VHADDPS Y3, Y2, Y2; \
	VHADDPS Y5, Y4, Y4; VHADDPS Y7, Y6, Y6; \
	VHADDPS Y2, Y0, Y0; VHADDPS Y6, Y4, Y4; \
	VPERM2F128 $0x21, Y4, Y0, Y1; \
	VBLENDPS $0xf0, Y4, Y0, Y0; \
	VADDPS Y1, Y0, Y0

// CLAMP sets row pointer cur one row past prev while more than k rows are
// left, else to prev (CX is the row length, zeroed for good once BX <= k;
// SI is 0).
#define CLAMP(k, prev, cur) CMPQ BX, $k; CMOVQLE SI, CX; LEAQ (prev)(CX*4), cur

// BATCHZ is the kernel body: ROW/ROWM score a row against a chunk, SCALAR
// folds one dim of a short row (X1 query, X2 row) into X0. Registers: SI
// query cursor, CX dims left in the group, DX out, BX rows left; K3 all 16
// lanes, K4 the dim%16 lanes of a partial last chunk, K2 the store mask.
#define BATCHZ(ROW, ROWM, SCALAR) \
	MOVQ data+8(FP), AX; \
	MOVQ out+16(FP), DX; \
	MOVQ dim+24(FP), CX; \
	MOVQ n+32(FP), BX; \
	CMPQ CX, $16; \
	JLT short; \
	MOVL $0xffff, SI; KMOVW SI, K3; \
	MOVL $0xff, SI; KMOVW SI, K2; \
	ANDL $15, CX; MOVL $1, SI; SHLL CX, SI; DECL SI; KMOVW SI, K4; \
group: \
	MOVQ dim+24(FP), CX; \
	CMPQ BX, $8; \
	JLT tail; \
	LEAQ (AX)(CX*4), DI; LEAQ (DI)(CX*4), R8; LEAQ (R8)(CX*4), R9; \
	LEAQ (R9)(CX*4), R10; LEAQ (R10)(CX*4), R11; LEAQ (R11)(CX*4), R12; \
	LEAQ (R12)(CX*4), R13; \
rows: \
	VXORPS Z0, Z0, Z0; VXORPS Z1, Z1, Z1; VXORPS Z2, Z2, Z2; VXORPS Z3, Z3, Z3; \
	VXORPS Z4, Z4, Z4; VXORPS Z5, Z5, Z5; VXORPS Z6, Z6, Z6; VXORPS Z7, Z7, Z7; \
	MOVQ q+0(FP), SI; \
dims: \
	KMOVW K3, K1; \
	CMPQ CX, $112; JLE lt8; CMPQ CX, $128; JGE b8; KMOVW K4, K1; JMP b8; \
lt8: \
	CMPQ CX, $48; JLE lt4; CMPQ CX, $64; JGE b4; KMOVW K4, K1; JMP b4; \
lt4: \
	CMPQ CX, $16; JLE lt2; CMPQ CX, $32; JGE b2; KMOVW K4, K1; JMP b2; \
lt2: \
	CMPQ CX, $16; JGE b1; KMOVW K4, K1; \
b1: \
	BODY1(ROW, ROWM); SUBQ $16, CX; JGT dims; JMP reduce; \
b2: \
	BODY2(ROW, ROWM); SUBQ $32, CX; JGT dims; JMP reduce; \
b4: \
	BODY4(ROW, ROWM); SUBQ $64, CX; JGT dims; JMP reduce; \
b8: \
	BODY8(ROW, ROWM); SUBQ $128, CX; JGT dims; \
reduce: \
	REDUCE8; \
	VMOVUPS Z0, K2, (DX); \
	ADDQ $32, DX; \
	LEAQ (R13)(CX*4), AX; \
	SUBQ $8, BX; \
	JGT group; \
	VZEROUPPER; \
	RET; \
tail: \
	MOVQ BX, CX; MOVL $1, SI; SHLL CX, SI; DECL SI; KMOVW SI, K2; \
	XORL SI, SI; \
	MOVQ dim+24(FP), CX; \
	CLAMP(1, AX, DI); CLAMP(2, DI, R8); CLAMP(3, R8, R9); CLAMP(4, R9, R10); \
	CLAMP(5, R10, R11); CLAMP(6, R11, R12); CLAMP(7, R12, R13); \
	MOVQ dim+24(FP), CX; \
	JMP rows; \
short: \
	MOVQ q+0(FP), SI; \
srow: \
	VXORPS X0, X0, X0; \
	MOVQ SI, R10; \
	MOVQ CX, R8; \
sdim: \
	VMOVSS (R10), X1; \
	VMOVSS (AX), X2; \
	SCALAR; \
	VADDSS X1, X0, X0; \
	ADDQ $4, R10; \
	ADDQ $4, AX; \
	DECQ R8; \
	JNE sdim; \
	VMOVSS X0, (DX); \
	ADDQ $4, DX; \
	DECQ BX; \
	JNE srow; \
	RET

#define L2SCALAR VSUBSS X2, X1, X1; VMULSS X1, X1, X1
#define IPSCALAR VMULSS X2, X1, X1

// func l2BatchZ(q, data, out *float32, dim, n int)
TEXT ·l2BatchZ(SB), NOSPLIT, $0-40
	BATCHZ(L2ROW, L2ROWM, L2SCALAR)

// func ipBatchZ(q, data, out *float32, dim, n int)
TEXT ·ipBatchZ(SB), NOSPLIT, $0-40
	BATCHZ(IPROW, IPROWM, IPSCALAR)

// Panel kernels (panel.go): rows × 16-centroid panels, one broadcast-FMA
// per (row, dim) into a lane per centroid. Registers common to both: AX
// DI R8 R9 the four rows of a group, CX dim, BX rows left, DX the group's
// four PanelMin (192 bytes each: Best at 0, Second at 64, Arg at 128), SI
// the panel cursor, R10 the norms cursor, R11 panels left, R12 the
// dimension index. The caller passes a multiple of four rows, and first,
// the index of the first centroid in cols, to number the lanes from. A score is
// VFMADD213PS(acc, −2, norm) = ‖c‖² − 2·x·c rounded once; it folds into a
// lane as PanelMin.fold does: Second = min(Second, max(Best, s)), then
// Best = min(Best, s), and Arg takes the centroid index where s < Best.

DATA panelIota<>+0(SB)/4, $0
DATA panelIota<>+4(SB)/4, $1
DATA panelIota<>+8(SB)/4, $2
DATA panelIota<>+12(SB)/4, $3
DATA panelIota<>+16(SB)/4, $4
DATA panelIota<>+20(SB)/4, $5
DATA panelIota<>+24(SB)/4, $6
DATA panelIota<>+28(SB)/4, $7
DATA panelIota<>+32(SB)/4, $8
DATA panelIota<>+36(SB)/4, $9
DATA panelIota<>+40(SB)/4, $10
DATA panelIota<>+44(SB)/4, $11
DATA panelIota<>+48(SB)/4, $12
DATA panelIota<>+52(SB)/4, $13
DATA panelIota<>+56(SB)/4, $14
DATA panelIota<>+60(SB)/4, $15
GLOBL panelIota<>(SB), RODATA|NOPTR, $64

DATA panelEight<>+0(SB)/4, $8
DATA panelEight<>+4(SB)/4, $8
DATA panelEight<>+8(SB)/4, $8
DATA panelEight<>+12(SB)/4, $8
DATA panelEight<>+16(SB)/4, $8
DATA panelEight<>+20(SB)/4, $8
DATA panelEight<>+24(SB)/4, $8
DATA panelEight<>+28(SB)/4, $8
GLOBL panelEight<>(SB), RODATA|NOPTR, $32

// PANELROWS points DI R8 R9 at the three rows after AX.
#define PANELROWS \
	LEAQ (AX)(CX*4), DI; LEAQ (DI)(CX*4), R8; LEAQ (R8)(CX*4), R9

// AVX-512: two panels (A, B) per sweep over the dimensions (an odd last
// panel sweeps alone), so 8 accumulators are in flight: Z0/Z1 row 0's lanes of A/B, Z2/Z3 row 1's,
// Z4/Z5 row 2's, Z6/Z7 row 3's. The four rows' PanelMin stay in registers
// across the whole codebook: Best Z8–Z11, Second Z12–Z15, Arg Z16–Z19.
// Z20 holds the centroid indices of the panel being folded, Z21 sixteen,
// Z22/Z23 a dimension of panels A/B, Z24–Z27 the rows' broadcast values,
// Z28 the panel's norms, Z29 scratch, Z30 −2.
#define ZFOLD(acc, best, second, arg) \
	VFMADD213PS Z28, Z30, acc; \
	VCMPPS $0x11, best, acc, K1; \
	VMAXPS best, acc, Z29; \
	VMINPS Z29, second, second; \
	VMINPS acc, best, best; \
	VMOVDQA32 Z20, K1, arg

#define ZSTORE(off, best, second, arg) \
	VMOVUPS best, off(DX); VMOVUPS second, off+64(DX); VMOVDQU32 arg, off+128(DX)

// func l2PanelZ(x, cols, norms *float32, out *PanelMin, dim, rows, panels, first int)
TEXT ·l2PanelZ(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), AX
	MOVQ out+24(FP), DX
	MOVQ dim+32(FP), CX
	MOVQ rows+40(FP), BX
	MOVQ CX, R13
	SHLQ $6, R13 // bytes in one panel
	MOVL $16, R14
	VPBROADCASTD R14, Z21
	MOVL $0xc0000000, R14 // -2.0
	VPBROADCASTD R14, Z30

zpgroup:
	PANELROWS
	VMOVUPS 0(DX), Z8; VMOVUPS 64(DX), Z12; VMOVDQU32 128(DX), Z16
	VMOVUPS 192(DX), Z9; VMOVUPS 256(DX), Z13; VMOVDQU32 320(DX), Z17
	VMOVUPS 384(DX), Z10; VMOVUPS 448(DX), Z14; VMOVDQU32 512(DX), Z18
	VMOVUPS 576(DX), Z11; VMOVUPS 640(DX), Z15; VMOVDQU32 704(DX), Z19
	VPBROADCASTD first+56(FP), Z20
	VPADDD panelIota<>(SB), Z20, Z20
	MOVQ cols+8(FP), SI
	MOVQ norms+16(FP), R10
	MOVQ panels+48(FP), R11

zppair:
	CMPQ R11, $2
	JLT  zpsingle
	VXORPS Z0, Z0, Z0; VXORPS Z1, Z1, Z1; VXORPS Z2, Z2, Z2; VXORPS Z3, Z3, Z3
	VXORPS Z4, Z4, Z4; VXORPS Z5, Z5, Z5; VXORPS Z6, Z6, Z6; VXORPS Z7, Z7, Z7
	XORQ R12, R12

zpdim:
	VMOVUPS (SI), Z22
	VMOVUPS (SI)(R13*1), Z23
	VBROADCASTSS (AX)(R12*4), Z24
	VBROADCASTSS (DI)(R12*4), Z25
	VBROADCASTSS (R8)(R12*4), Z26
	VBROADCASTSS (R9)(R12*4), Z27
	VFMADD231PS Z22, Z24, Z0
	VFMADD231PS Z23, Z24, Z1
	VFMADD231PS Z22, Z25, Z2
	VFMADD231PS Z23, Z25, Z3
	VFMADD231PS Z22, Z26, Z4
	VFMADD231PS Z23, Z26, Z5
	VFMADD231PS Z22, Z27, Z6
	VFMADD231PS Z23, Z27, Z7
	ADDQ $64, SI
	INCQ R12
	CMPQ R12, CX
	JLT  zpdim

	VMOVUPS (R10), Z28
	ZFOLD(Z0, Z8, Z12, Z16); ZFOLD(Z2, Z9, Z13, Z17)
	ZFOLD(Z4, Z10, Z14, Z18); ZFOLD(Z6, Z11, Z15, Z19)
	VPADDD Z21, Z20, Z20
	VMOVUPS 64(R10), Z28
	ZFOLD(Z1, Z8, Z12, Z16); ZFOLD(Z3, Z9, Z13, Z17)
	ZFOLD(Z5, Z10, Z14, Z18); ZFOLD(Z7, Z11, Z15, Z19)
	VPADDD Z21, Z20, Z20
	ADDQ $128, R10
	ADDQ R13, SI // past panel B
	SUBQ $2, R11
	JMP  zppair

zpsingle: // an odd last panel, as panel A alone
	TESTQ R11, R11
	JZ    zpstore
	VXORPS Z0, Z0, Z0; VXORPS Z2, Z2, Z2; VXORPS Z4, Z4, Z4; VXORPS Z6, Z6, Z6
	XORQ R12, R12

zpsdim:
	VMOVUPS (SI), Z22
	VFMADD231PS.BCST (AX)(R12*4), Z22, Z0
	VFMADD231PS.BCST (DI)(R12*4), Z22, Z2
	VFMADD231PS.BCST (R8)(R12*4), Z22, Z4
	VFMADD231PS.BCST (R9)(R12*4), Z22, Z6
	ADDQ $64, SI
	INCQ R12
	CMPQ R12, CX
	JLT  zpsdim

	VMOVUPS (R10), Z28
	ZFOLD(Z0, Z8, Z12, Z16); ZFOLD(Z2, Z9, Z13, Z17)
	ZFOLD(Z4, Z10, Z14, Z18); ZFOLD(Z6, Z11, Z15, Z19)

zpstore:
	ZSTORE(0, Z8, Z12, Z16); ZSTORE(192, Z9, Z13, Z17)
	ZSTORE(384, Z10, Z14, Z18); ZSTORE(576, Z11, Z15, Z19)
	ADDQ $768, DX
	LEAQ (R9)(CX*4), AX
	SUBQ $4, BX
	JGT  zpgroup
	VZEROUPPER
	RET

// AVX2: one panel per sweep, each as two 8-lane halves: Y0/Y1 row 0's
// low/high lanes, Y2/Y3 row 1's, Y4/Y5 row 2's, Y6/Y7 row 3's; Y8/Y9 a
// dimension of the panel, Y10 the broadcast value, Y11 the norms, then
// scratch, Y12 −2, Y13 the centroid indices of the half being folded,
// Y14/Y15 scratch. There are too few registers to hold the rows'
// PanelMin, so each fold reads and writes its row's half in out.
#define YFOLD(s, off) \
	VMOVUPS off(DX), Y14; \
	VCMPPS $0x11, Y14, s, Y15; \
	VMAXPS Y14, s, Y11; \
	VMINPS s, Y14, Y14; \
	VMOVUPS Y14, off(DX); \
	VMINPS off+64(DX), Y11, Y11; \
	VMOVUPS Y11, off+64(DX); \
	VMOVUPS off+128(DX), Y14; \
	VBLENDVPS Y15, Y13, Y14, Y14; \
	VMOVUPS Y14, off+128(DX)

// func l2PanelFMA(x, cols, norms *float32, out *PanelMin, dim, rows, panels, first int)
TEXT ·l2PanelFMA(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), AX
	MOVQ out+24(FP), DX
	MOVQ dim+32(FP), CX
	MOVQ rows+40(FP), BX
	MOVL $0xc0000000, R14 // -2.0
	MOVQ R14, X12
	VBROADCASTSS X12, Y12

fpgroup:
	PANELROWS
	VPBROADCASTD first+56(FP), Y13
	VPADDD panelIota<>(SB), Y13, Y13
	MOVQ cols+8(FP), SI
	MOVQ norms+16(FP), R10
	MOVQ panels+48(FP), R11

fppanel:
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
	XORQ R12, R12

fpdim:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VBROADCASTSS (AX)(R12*4), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (DI)(R12*4), Y10
	VFMADD231PS Y8, Y10, Y2
	VFMADD231PS Y9, Y10, Y3
	VBROADCASTSS (R8)(R12*4), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (R9)(R12*4), Y10
	VFMADD231PS Y8, Y10, Y6
	VFMADD231PS Y9, Y10, Y7
	ADDQ $64, SI
	INCQ R12
	CMPQ R12, CX
	JLT  fpdim

	VMOVUPS (R10), Y11
	VFMADD213PS Y11, Y12, Y0; VFMADD213PS Y11, Y12, Y2
	VFMADD213PS Y11, Y12, Y4; VFMADD213PS Y11, Y12, Y6
	VMOVUPS 32(R10), Y11
	VFMADD213PS Y11, Y12, Y1; VFMADD213PS Y11, Y12, Y3
	VFMADD213PS Y11, Y12, Y5; VFMADD213PS Y11, Y12, Y7
	YFOLD(Y0, 0); YFOLD(Y2, 192); YFOLD(Y4, 384); YFOLD(Y6, 576)
	VPADDD panelEight<>(SB), Y13, Y13
	YFOLD(Y1, 32); YFOLD(Y3, 224); YFOLD(Y5, 416); YFOLD(Y7, 608)
	VPADDD panelEight<>(SB), Y13, Y13
	ADDQ $64, R10
	DECQ R11
	JNZ  fppanel

	ADDQ $768, DX
	LEAQ (R9)(CX*4), AX
	SUBQ $4, BX
	JGT  fpgroup
	VZEROUPPER
	RET
