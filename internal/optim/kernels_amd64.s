//go:build !purego

#include "textflag.h"

// The AVX2 form of the momentum step (kernels.go). Each lane performs the
// reference's IEEE operations in its order, no FMA, under the default
// round-to-nearest-even of MXCSR. Where both operands of an operation are
// NaN, x86 returns the first source's payload, so each operation takes
// its first source where the compiled Go loop does: v is the first source
// of μ·v and −η the first of −η·v (VMULPS Y0, Y15, Y1), and the product
// is the first source of both adds (VADDPS mem, Y0, Y0).

// func sgdStepAVX2(w, vel, grad *float32, n8 int, mu, negLR float32)
//
// v = μ·vel + grad; vel = v; w = w + (−η)·v for n8 groups of eight.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ vel+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n8+24(FP), CX
	VBROADCASTSS mu+32(FP), Y14
	VBROADCASTSS negLR+36(FP), Y15
steploop:
	VMOVUPS (SI), Y0
	VMULPS Y14, Y0, Y0
	VADDPS (DX), Y0, Y0
	VMOVUPS Y0, (SI)
	VMULPS Y0, Y15, Y1
	VADDPS (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  steploop
	VZEROUPPER
	RET
