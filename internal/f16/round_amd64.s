//go:build !purego

#include "textflag.h"

// The constants of roundBits (f16.go), broadcast to eight lanes each.
DATA roundK<>+0(SB)/4, $0x7fffffff // sign-cleared pattern
DATA roundK<>+4(SB)/4, $0x00000fff // half of the 13 dropped bits, less one
DATA roundK<>+8(SB)/4, $0xffffe000 // the bits a normal half keeps
DATA roundK<>+12(SB)/4, $0x477fffff // below 2^16
DATA roundK<>+16(SB)/4, $0x7f800000 // Inf
DATA roundK<>+20(SB)/4, $0x7fc00000 // quiet NaN
DATA roundK<>+24(SB)/4, $0x007fe000 // the payload bits binary16 has room for
DATA roundK<>+28(SB)/4, $0x3f000000 // 0.5
DATA roundK<>+32(SB)/4, $0x33800000 // 2^-24, the smallest subnormal half
DATA roundK<>+36(SB)/4, $0x38800000 // 2^-14, the smallest normal half
GLOBL roundK<>(SB), RODATA|NOPTR, $40

// func roundWidenAVX2(dst *float64, src *float32, n8 int)
//
// roundBits on n8 groups of eight float32, widened to float64: every class
// is computed with the scalar kernel's integer operations (and its one
// float add and subtract for the subnormal class) and blended in the order
// the scalar kernel overrides. "VPCMPGTD b, a, d" is d = a > b, signed,
// which agrees with the unsigned reference wherever the result is used:
// the one sum that can reach bit 31 belongs to a NaN and is overridden.
TEXT ·roundWidenAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n8+16(FP), CX
	VPBROADCASTD roundK<>+0(SB), Y15
	VPBROADCASTD roundK<>+4(SB), Y14
	VPBROADCASTD roundK<>+8(SB), Y13
	VPBROADCASTD roundK<>+12(SB), Y12
	VPBROADCASTD roundK<>+16(SB), Y11
	VPBROADCASTD roundK<>+20(SB), Y10
	VPBROADCASTD roundK<>+24(SB), Y9
	VPBROADCASTD roundK<>+28(SB), Y8
	VPBROADCASTD roundK<>+32(SB), Y7
	VPBROADCASTD roundK<>+36(SB), Y6
loop:
	VMOVDQU   (SI), Y0
	VPAND     Y15, Y0, Y1      // x = b & 0x7FFFFFFF
	VPXOR     Y1, Y0, Y0       // the sign bit
	VPSLLD    $18, Y1, Y3
	VPSRLD    $31, Y3, Y3      // x>>13 & 1
	VPADDD    Y1, Y3, Y2
	VPADDD    Y14, Y2, Y2
	VPAND     Y13, Y2, Y2      // r = (x + 0xFFF + lsb) &^ 0x1FFF
	VPCMPGTD  Y12, Y2, Y5
	VPBLENDVB Y5, Y11, Y2, Y2  // r >= 2^16: Inf
	VPCMPGTD  Y11, Y1, Y5
	VPAND     Y9, Y1, Y3
	VPOR      Y10, Y3, Y3
	VPBLENDVB Y5, Y3, Y2, Y2   // NaN: quiet bit and payload
	VADDPS    Y8, Y1, Y4
	VSUBPS    Y8, Y4, Y4       // sub = x + 0.5 - 0.5
	VPCMPGTD  Y1, Y7, Y5
	VPANDN    Y4, Y5, Y4       // x < 2^-24: 0
	VPCMPGTD  Y1, Y6, Y5
	VPBLENDVB Y5, Y4, Y2, Y2   // x < 2^-14: sub
	VPOR      Y0, Y2, Y2
	VCVTPS2PD X2, Y3
	VEXTRACTI128 $1, Y2, X2
	VCVTPS2PD X2, Y4
	VMOVUPD   Y3, (DI)
	VMOVUPD   Y4, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER
	RET
