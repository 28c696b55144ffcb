//go:build !purego

#include "textflag.h"

// AVX2 forms of the sparsify sweeps (kernels.go). Each lane performs the
// reference's IEEE operation on the reference's operands: no FMA, the
// default round-to-nearest-even of MXCSR, and ordered, quiet compares, so
// a NaN is neither above nor at the threshold, as with Go's > and ==.

// func magsAVX2(mags *float64, bins *complex128, n4 int)
//
// |z|² = re·re + im·im for n4 groups of four bins: square the pairs, add
// each pair's halves (VHADDPD yields bins 0, 2, 1, 3) and put the lanes
// back in order.
TEXT ·magsAVX2(SB), NOSPLIT, $0-24
	MOVQ mags+0(FP), DI
	MOVQ bins+8(FP), SI
	MOVQ n4+16(FP), CX
maloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD Y0, Y0, Y0
	VMULPD Y1, Y1, Y1
	VHADDPD Y1, Y0, Y2
	VPERMPD $0xD8, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  maloop
	VZEROUPPER
	RET

// MASK8 compares the eight magnitudes at SI with the threshold in Y15 and
// ORs their gt (GT_OQ) and eq (EQ_OQ) bits, shifted up by CX, into R10
// and R11.
#define MASK8 \
	VMOVUPD (SI), Y0; \
	VMOVUPD 32(SI), Y1; \
	VCMPPD $0x1e, Y15, Y0, Y2; \
	VCMPPD $0x1e, Y15, Y1, Y3; \
	VCMPPD $0x00, Y15, Y0, Y4; \
	VCMPPD $0x00, Y15, Y1, Y5; \
	VMOVMSKPD Y2, AX; \
	VMOVMSKPD Y3, BX; \
	SHLQ $4, BX; \
	ORQ  BX, AX; \
	SHLQ CX, AX; \
	ORQ  AX, R10; \
	VMOVMSKPD Y4, AX; \
	VMOVMSKPD Y5, BX; \
	SHLQ $4, BX; \
	ORQ  BX, AX; \
	SHLQ CX, AX; \
	ORQ  AX, R11

// func maskWordsAVX2(gt, eq *uint64, mags *float64, nwords int, thr float64)
//
// nwords whole words of maskWord: bit i of a word is magnitude i.
TEXT ·maskWordsAVX2(SB), NOSPLIT, $0-40
	MOVQ gt+0(FP), DI
	MOVQ eq+8(FP), R8
	MOVQ mags+16(FP), SI
	MOVQ nwords+24(FP), DX
	VBROADCASTSD thr+32(FP), Y15
mwword:
	XORQ R10, R10
	XORQ R11, R11
	XORQ CX, CX
mwbits:
	MASK8
	ADDQ $64, SI
	ADDQ $8, CX
	CMPQ CX, $64
	JNE  mwbits
	MOVQ R10, (DI)
	MOVQ R11, (R8)
	ADDQ $8, DI
	ADDQ $8, R8
	DECQ DX
	JNZ  mwword
	VZEROUPPER
	RET

// func narrowAVX2(dst *float32, src *float64, n8 int)
//
// float32(x) for n8 groups of eight: VCVTPD2PS rounds as CVTSD2SS does.
TEXT ·narrowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n8+16(FP), CX
naloop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  naloop
	VZEROUPPER
	RET

// func narrowAccAVX2(dst *float32, src *float64, n8 int, wt, scale float32)
//
// dst = (dst + wt·float32(src))·scale for n8 groups of eight, in the
// reference's order: narrow, multiply, add, multiply, each rounded.
TEXT ·narrowAccAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n8+16(FP), CX
	VBROADCASTSS wt+24(FP), Y14
	VBROADCASTSS scale+28(FP), Y15
acloop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VINSERTF128 $1, X1, Y0, Y0
	VMULPS Y14, Y0, Y0
	VADDPS (DI), Y0, Y0
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  acloop
	VZEROUPPER
	RET
