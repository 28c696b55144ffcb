//go:build !purego

#include "textflag.h"

// AVX2 forms of the cfft kernels (kernels.go). Four butterflies or bins
// travel in one register in split form — a vector of real parts and a
// vector of imaginary parts — so a complex multiply is four VMULPD and
// one VSUBPD/VADDPD with no shuffles, and the ±i rotation is a choice of
// operands. Every lane executes the reference's IEEE operations with the
// reference's operand pairing: separate multiplies and adds, never FMA;
// an operation the reference performs on a negated operand (a conjugated
// twiddle, -imag(s3)) is performed as the add/subtract it equals exactly.
//
// In the operand order of this assembler, "VSUBPD b, a, d" is d = a - b.

DATA consts<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA consts<>+8(SB)/8, $0x3fe0000000000000 // 0.5
DATA consts<>+16(SB)/8, $0xbfe0000000000000 // -0.5
DATA consts<>+24(SB)/8, $0x0000000000000000
DATA consts<>+32(SB)/8, $0x8000000000000000 // sign bit of the real part,
DATA consts<>+40(SB)/8, $0x0000000000000000 // two (re, im) pairs
DATA consts<>+48(SB)/8, $0x8000000000000000
DATA consts<>+56(SB)/8, $0x0000000000000000
GLOBL consts<>(SB), RODATA|NOPTR, $64

// LOAD4 reads four consecutive complex128 (two at p, two at p+off2) into
// a vector of real parts and one of imaginary parts, elements {0,2,1,3};
// STORE4 is its inverse.
#define LOAD4(p, off2, re, im, t0, t1) \
	VMOVUPD (p), t0; \
	VMOVUPD off2(p), t1; \
	VUNPCKLPD t1, t0, re; \
	VUNPCKHPD t1, t0, im

#define STORE4(p, off2, re, im, t0, t1) \
	VUNPCKLPD im, re, t0; \
	VUNPCKHPD im, re, t1; \
	VMOVUPD t0, (p); \
	VMOVUPD t1, off2(p)

// CMUL is o = x·w: (xr·wr - xi·wi, xr·wi + xi·wr). CMULC is x·conj(w),
// which the reference computes with -wi in w's place:
// (xr·wr + xi·wi, xi·wr - xr·wi).
#define CMUL(xr, xi, wr, wi, or, oi, t) \
	VMULPD wr, xr, or; \
	VMULPD wi, xi, t; \
	VSUBPD t, or, or; \
	VMULPD wi, xr, oi; \
	VMULPD wr, xi, t; \
	VADDPD t, oi, oi

#define CMULC(xr, xi, wr, wi, or, oi, t) \
	VMULPD wr, xr, or; \
	VMULPD wi, xi, t; \
	VADDPD t, or, or; \
	VMULPD wi, xr, oi; \
	VMULPD wr, xi, t; \
	VSUBPD oi, t, oi

// BUTTERFLY is four rows of the fused radix-4 stage: AX, BX, CX, DX point
// at the rows' a, b, c, d operands, R13 at their twiddle group. MUL is
// CMUL and (pm, pp) = (BX, DX) forward; CMULC and (DX, BX) inverse: s1-r
// goes to pm and s1+r to pp, where r = i·s3.
#define BUTTERFLY(off2, MUL, pm, pp) \
	LOAD4(BX, off2, Y2, Y3, Y8, Y9); \
	VMOVUPD 64(R13), Y10; \
	VMOVUPD 96(R13), Y11; \
	MUL(Y2, Y3, Y10, Y11, Y8, Y9, Y12); \
	LOAD4(AX, off2, Y0, Y1, Y12, Y13); \
	VADDPD Y8, Y0, Y2; \
	VADDPD Y9, Y1, Y3; \
	VSUBPD Y8, Y0, Y0; \
	VSUBPD Y9, Y1, Y1; \
	LOAD4(CX, off2, Y4, Y5, Y12, Y13); \
	VMOVUPD (R13), Y10; \
	VMOVUPD 32(R13), Y11; \
	MUL(Y4, Y5, Y10, Y11, Y8, Y9, Y12); \
	LOAD4(DX, off2, Y6, Y7, Y12, Y13); \
	VMOVUPD 128(R13), Y10; \
	VMOVUPD 160(R13), Y11; \
	MUL(Y6, Y7, Y10, Y11, Y12, Y13, Y14); \
	VADDPD Y12, Y8, Y4; \
	VADDPD Y13, Y9, Y5; \
	VSUBPD Y12, Y8, Y6; \
	VSUBPD Y13, Y9, Y7; \
	VADDPD Y4, Y2, Y8; \
	VADDPD Y5, Y3, Y9; \
	STORE4(AX, off2, Y8, Y9, Y10, Y11); \
	VSUBPD Y4, Y2, Y8; \
	VSUBPD Y5, Y3, Y9; \
	STORE4(CX, off2, Y8, Y9, Y10, Y11); \
	VADDPD Y7, Y0, Y8; \
	VSUBPD Y6, Y1, Y9; \
	STORE4(pm, off2, Y8, Y9, Y10, Y11); \
	VSUBPD Y7, Y0, Y8; \
	VADDPD Y6, Y1, Y9; \
	STORE4(pp, off2, Y8, Y9, Y10, Y11)

// RADIX4 is the loop nest: for each of R8 blocks R9 bytes apart, starting
// at DI, R11 groups of four rows, the quarter-blocks R12 bytes apart.
#define RADIX4(blk, grp, MUL, pm, pp) \
blk: \
	MOVQ DI, AX; \
	LEAQ (AX)(R12*1), BX; \
	LEAQ (BX)(R12*1), CX; \
	LEAQ (CX)(R12*1), DX; \
	MOVQ SI, R13; \
	MOVQ R11, R10; \
grp: \
	BUTTERFLY(32, MUL, pm, pp); \
	ADDQ $64, AX; \
	ADDQ $64, BX; \
	ADDQ $64, CX; \
	ADDQ $64, DX; \
	ADDQ $192, R13; \
	DECQ R10; \
	JNZ grp; \
	ADDQ R9, DI; \
	DECQ R8; \
	JNZ blk

// func radix4AVX2(x *complex128, nblk int, tw *float64, m, lo, hi int, inverse bool)
//
// Rows [lo, hi) — whole groups of four — of the size-m stage (m >= 16)
// over nblk consecutive blocks.
TEXT ·radix4AVX2(SB), NOSPLIT, $0-49
	MOVQ x+0(FP), DI
	MOVQ nblk+8(FP), R8
	MOVQ tw+16(FP), SI
	MOVQ m+24(FP), R9
	MOVQ lo+32(FP), R10
	MOVQ hi+40(FP), R11
	SUBQ R10, R11
	SHRQ $2, R11
	JZ   r4done
	TESTQ R8, R8
	JZ   r4done
	LEAQ (R9*4), R12
	SHLQ $4, R9
	MOVQ R10, AX
	SHLQ $4, AX
	ADDQ AX, DI
	SHRQ $2, R10
	IMUL3Q $192, R10, R10
	ADDQ R10, SI
	CMPB inverse+48(FP), $0
	JNE  r4inv
	RADIX4(r4fblk, r4fgrp, CMUL, BX, DX)
	VZEROUPPER
	RET
r4inv:
	RADIX4(r4iblk, r4igrp, CMULC, DX, BX)
r4done:
	VZEROUPPER
	RET

// func radix4x8AVX2(x *complex128, npair int, tw *float64, inverse bool)
//
// The size-8 stage has two rows per block, so each vector spans the same
// two rows of two adjacent blocks (128 bytes apart); tw is the stage's
// single group with rows {0,0,1,1}.
TEXT ·radix4x8AVX2(SB), NOSPLIT, $0-25
	MOVQ x+0(FP), AX
	MOVQ npair+8(FP), R8
	MOVQ tw+16(FP), R13
	TESTQ R8, R8
	JZ   r8done
	LEAQ 32(AX), BX
	LEAQ 64(AX), CX
	LEAQ 96(AX), DX
	CMPB inverse+24(FP), $0
	JNE  r8inv
r8fwd:
	BUTTERFLY(128, CMUL, BX, DX)
	ADDQ $256, AX
	ADDQ $256, BX
	ADDQ $256, CX
	ADDQ $256, DX
	DECQ R8
	JNZ  r8fwd
	VZEROUPPER
	RET
r8inv:
	BUTTERFLY(128, CMULC, DX, BX)
	ADDQ $256, AX
	ADDQ $256, BX
	ADDQ $256, CX
	ADDQ $256, DX
	DECQ R8
	JNZ  r8inv
r8done:
	VZEROUPPER
	RET

// func stage2AVX2(x *complex128, nquad int)
//
// Size-2 butterflies over nquad groups of four elements: (a, b) pairs are
// split across the two 128-bit halves, added and subtracted, and rejoined.
TEXT ·stage2AVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), AX
	MOVQ nquad+8(FP), R8
	TESTQ R8, R8
	JZ   s2done
s2loop:
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2 // a0 a1
	VPERM2F128 $0x31, Y1, Y0, Y3 // b0 b1
	VADDPD Y3, Y2, Y4
	VSUBPD Y3, Y2, Y5
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ $64, AX
	DECQ R8
	JNZ  s2loop
s2done:
	VZEROUPPER
	RET

// func stage4AVX2(x *complex128, npair int, inverse bool)
//
// The twiddle-free size-4 stage over npair pairs of blocks, element j of
// both blocks in one register as two (re, im) pairs.
TEXT ·stage4AVX2(SB), NOSPLIT, $0-17
	MOVQ x+0(FP), AX
	MOVQ npair+8(FP), R8
	MOVBLZX inverse+16(FP), R9
	VMOVUPD consts<>+32(SB), Y15
	TESTQ R8, R8
	JZ   s4done
s4loop:
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VPERM2F128 $0x20, Y2, Y0, Y4 // x0
	VPERM2F128 $0x31, Y2, Y0, Y5 // x1
	VPERM2F128 $0x20, Y3, Y1, Y6 // x2
	VPERM2F128 $0x31, Y3, Y1, Y7 // x3
	VADDPD Y5, Y4, Y8  // s0
	VSUBPD Y5, Y4, Y9  // s1
	VADDPD Y7, Y6, Y10 // s2
	VSUBPD Y7, Y6, Y11 // s3
	VPERMILPD $5, Y11, Y11
	VXORPD Y15, Y11, Y11 // r = (-im s3, re s3)
	VADDPD Y10, Y8, Y4 // out 0
	VSUBPD Y10, Y8, Y6 // out 2
	VSUBPD Y11, Y9, Y5 // s1 - r
	VADDPD Y11, Y9, Y7 // s1 + r
	TESTQ R9, R9
	JZ   s4store
	VSUBPD Y11, Y9, Y7
	VADDPD Y11, Y9, Y5
s4store:
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x20, Y7, Y6, Y1
	VPERM2F128 $0x31, Y5, Y4, Y2
	VPERM2F128 $0x31, Y7, Y6, Y3
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ $128, AX
	DECQ R8
	JNZ  s4loop
s4done:
	VZEROUPPER
	RET

// LOAD4R reads the four complex128 at p, p-16, p-32, p-48 (descending
// addresses) in LOAD4's element order.
#define LOAD4R(p, re, im, t0, t1, x0, x1) \
	VMOVUPD (p), x0; \
	VINSERTF128 $1, -16(p), t0, t0; \
	VMOVUPD -32(p), x1; \
	VINSERTF128 $1, -48(p), t1, t1; \
	VUNPCKLPD t1, t0, re; \
	VUNPCKHPD t1, t0, im

// HALVE is (or, oi) = (xr, xi)·(c + 0i) written out as the reference's
// full complex multiply, zero products included (they decide the sign of
// a zero result): (xr·c - xi·0, xr·0 + xi·c). Y13 holds zeros.
#define HALVE(xr, xi, c, or, oi, t) \
	VMULPD c, xr, or; \
	VMULPD Y13, xi, t; \
	VSUBPD t, or, or; \
	VMULPD Y13, xr, t; \
	VMULPD c, xi, oi; \
	VADDPD oi, t, oi

// func untangleAVX2(spec, z *complex128, untw *float64, h int)
//
// Bins [4, h) of untangleGo, h = len(z) >= 8.
TEXT ·untangleAVX2(SB), NOSPLIT, $0-32
	MOVQ spec+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ untw+16(FP), BX
	MOVQ h+24(FP), CX
	MOVQ CX, DX
	SHLQ $4, DX
	ADDQ SI, DX                 // &z[h]
	SUBQ $64, DX                // &z[h-4]: mirror of bin 4
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	SHRQ $2, CX
	DECQ CX                     // groups 1 .. h/4-1
	VBROADCASTSD consts<>+0(SB), Y12
	VXORPD Y13, Y13, Y13
	VBROADCASTSD consts<>+8(SB), Y14
	VBROADCASTSD consts<>+16(SB), Y15
unloop:
	LOAD4(SI, 32, Y0, Y1, Y8, Y9)               // zk
	LOAD4R(DX, Y2, Y3, Y8, Y9, X8, X9)          // Z[h-k]
	VXORPD Y12, Y3, Y3                          // zmk = conj
	VADDPD Y2, Y0, Y4                           // zk + zmk
	VADDPD Y3, Y1, Y5
	VSUBPD Y2, Y0, Y6                           // zk - zmk
	VSUBPD Y3, Y1, Y7
	HALVE(Y4, Y5, Y14, Y0, Y1, Y8)              // even
	// odd = (dr + i·di)·(0 - 0.5i) = (dr·0 - di·(-0.5), dr·(-0.5) + di·0)
	VMULPD Y13, Y6, Y2
	VMULPD Y15, Y7, Y8
	VSUBPD Y8, Y2, Y2
	VMULPD Y15, Y6, Y3
	VMULPD Y13, Y7, Y8
	VADDPD Y8, Y3, Y3
	VMOVUPD (BX), Y10
	VMOVUPD 32(BX), Y11
	CMUL(Y2, Y3, Y10, Y11, Y4, Y5, Y8)          // odd·w
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	STORE4(DI, 32, Y0, Y1, Y8, Y9)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $64, DX
	DECQ CX
	JNZ  unloop
	VZEROUPPER
	RET

// func retangleAVX2(z, spec *complex128, untw *float64, h int)
//
// Bins [4, h) of retangleGo, h = len(z) >= 8.
TEXT ·retangleAVX2(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DI
	MOVQ spec+8(FP), SI
	MOVQ untw+16(FP), BX
	MOVQ h+24(FP), CX
	MOVQ CX, DX
	SHLQ $4, DX
	ADDQ SI, DX
	SUBQ $64, DX                // &spec[h-4]
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	SHRQ $2, CX
	DECQ CX
	VBROADCASTSD consts<>+0(SB), Y12
	VXORPD Y13, Y13, Y13
	VBROADCASTSD consts<>+8(SB), Y14
reloop:
	LOAD4(SI, 32, Y0, Y1, Y8, Y9)               // xk
	LOAD4R(DX, Y2, Y3, Y8, Y9, X8, X9)          // X[h-k]
	VXORPD Y12, Y3, Y3                          // xmk = conj
	VADDPD Y2, Y0, Y4
	VADDPD Y3, Y1, Y5
	VSUBPD Y2, Y0, Y6
	VSUBPD Y3, Y1, Y7
	HALVE(Y4, Y5, Y14, Y0, Y1, Y8)              // even
	HALVE(Y6, Y7, Y14, Y2, Y3, Y8)              // odd
	// j = i·conj(w) = (0 + 1i)·(wr - wi·i) = (0·wr - (-wi), 0·(-wi) + wr)
	VMOVUPD (BX), Y10
	VMOVUPD 32(BX), Y11
	VXORPD Y12, Y11, Y11
	VMULPD Y13, Y10, Y4
	VSUBPD Y11, Y4, Y4
	VMULPD Y13, Y11, Y5
	VADDPD Y10, Y5, Y5
	CMUL(Y4, Y5, Y2, Y3, Y6, Y7, Y8)            // j·odd
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	STORE4(DI, 32, Y0, Y1, Y8, Y9)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $64, DX
	DECQ CX
	JNZ  reloop
	VZEROUPPER
	RET

// TILEPAIR carries columns c, c+1 (byte offset off) of tile rows a (SI)
// and a+8 (SI+DX) to rows rev4(c) and rev4(c+1) = rev4(c)+8 of the
// reversed tile, at byte offsets d0 and d0+2048 from AX. Rows a and a+8
// land in adjacent columns rev4(a) and rev4(a)+1, so each destination is
// one (row a, row a+8) pair of 128-bit halves. SCALE runs on both loads.
#define TILEPAIR(SCALE, off, d0, d1) \
	VMOVUPD off(SI), Y0; \
	VMOVUPD off(SI)(DX*1), Y1; \
	SCALE(Y0, Y2); \
	SCALE(Y1, Y3); \
	VPERM2F128 $0x20, Y1, Y0, Y2; \
	VPERM2F128 $0x31, Y1, Y0, Y3; \
	VMOVUPD Y2, d0(AX); \
	VMOVUPD Y3, d1(AX)

// TILEROW is TILEPAIR over the row pair's sixteen columns: c = 2j goes to
// row rev4(2j) = 0, 4, 2, 6, 1, 5, 3, 7 (256 bytes a row).
#define TILEROW(SCALE) \
	TILEPAIR(SCALE, 0, 0, 2048); \
	TILEPAIR(SCALE, 32, 1024, 3072); \
	TILEPAIR(SCALE, 64, 512, 2560); \
	TILEPAIR(SCALE, 96, 1536, 3584); \
	TILEPAIR(SCALE, 128, 256, 2304); \
	TILEPAIR(SCALE, 160, 1280, 3328); \
	TILEPAIR(SCALE, 192, 768, 2816); \
	TILEPAIR(SCALE, 224, 1792, 3840)

#define NOSCALE(y, t)

// SCALE1N is y·complex(s, 0) as the reference's full complex multiply,
// (a·s - b·0, a·0 + b·s), zero products included: they make a zero's
// sign and Inf·0 = NaN come out as in Go. Y14 holds s, Y15 zeros.
#define SCALE1N(y, t) \
	VPERMILPD $5, y, t; \
	VMULPD Y15, t, t; \
	VMULPD Y14, y, y; \
	VADDSUBPD t, y, y

// TILELOOP runs TILEROW over a = 0..7 (CX), AX at column rev4(a) of t.
#define TILELOOP(loop, SCALE) \
loop: \
	MOVBQZX (R8)(CX*1), AX; \
	SHLQ $4, AX; \
	ADDQ DI, AX; \
	TILEROW(SCALE); \
	ADDQ R9, SI; \
	INCQ CX; \
	CMPQ CX, $8; \
	JNE  loop

// func loadAVX2(t *tile, x *complex128, stride int, s float64, inverse bool)
//
// loadGo over one whole tile: rows a and a+8 at a time, times s when
// inverse.
TEXT ·loadAVX2(SB), NOSPLIT, $0-33
	MOVQ t+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ stride+16(FP), R9
	SHLQ $4, R9                 // one row, in bytes
	LEAQ (R9*8), DX             // eight rows
	LEAQ ·rev4(SB), R8
	XORQ CX, CX
	CMPB inverse+32(FP), $0
	JNE  tlinv
	TILELOOP(tlfwd, NOSCALE)
	VZEROUPPER
	RET
tlinv:
	VBROADCASTSD s+24(FP), Y14
	VXORPD Y15, Y15, Y15
	TILELOOP(tlinvloop, SCALE1N)
	VZEROUPPER
	RET

// func storeAVX2(x *complex128, t *tile, stride int)
//
// storeGo: t's sixteen 256-byte rows to rows stride elements apart from
// x, eight 32-byte moves a row with no call per row.
TEXT ·storeAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ stride+16(FP), R9
	SHLQ $4, R9
	MOVQ $16, CX
stloop:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVUPD 192(SI), Y6
	VMOVUPD 224(SI), Y7
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, SI
	ADDQ R9, DI
	DECQ CX
	JNZ  stloop
	VZEROUPPER
	RET
