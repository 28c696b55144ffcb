//go:build !purego

#include "textflag.h"

// The AVX2 form of the fold (kernels.go). Each lane performs the
// reference's IEEE operations in its order, no FMA, under the default
// round-to-nearest-even of MXCSR. Where both operands of an operation are
// NaN, x86 returns the first source's payload, so each operation takes
// its first source where the compiled Go loop does: the product is the
// first source of the add (VADDPS mem, Y0, Y0).

// func foldAVX2(dst *float32, x unsafe.Pointer, n8 int, wt, scale float32)
//
// dst = (dst + wt·x)·scale for n8 groups of eight; x is loaded unaligned.
TEXT ·foldAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n8+16(FP), CX
	VBROADCASTSS wt+24(FP), Y14
	VBROADCASTSS scale+28(FP), Y15
foldloop:
	VMOVUPS (SI), Y0
	VMULPS Y14, Y0, Y0
	VADDPS (DI), Y0, Y0
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  foldloop
	VZEROUPPER
	RET
