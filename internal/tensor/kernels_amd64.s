//go:build !purego

#include "textflag.h"

// AVX2 forms of the tensor kernels (kernels.go). A lane is one output
// element and performs the reference's IEEE operations on it in the
// reference's order: a VMULPS for each product, then a VADDPS of it into
// the running sum, never FMA. Lanes never hold terms of the same sum.
//
// In the operand order of this assembler, "VADDPS b, a, d" is d = a + b.

// func axpy4AVX2(c, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n8 int)
//
// c[x] = (((c[x] + a0·b0[x]) + a1·b1[x]) + a2·b2[x]) + a3·b3[x], eight x
// at a time, n8 times.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y8
	VBROADCASTSS a1+44(FP), Y9
	VBROADCASTSS a2+48(FP), Y10
	VBROADCASTSS a3+52(FP), Y11
	MOVQ n8+56(FP), CX
	XORQ AX, AX
a4loop:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (R8)(AX*1), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*1), Y9, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  (R10)(AX*1), Y10, Y3
	VADDPS  Y3, Y0, Y0
	VMULPS  (R11)(AX*1), Y11, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     a4loop
	VZEROUPPER
	RET

// func axpy1AVX2(c, b *float32, a float32, n8 int)
//
// c[x] = c[x] + a·b[x], eight x at a time, n8 times.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS a+16(FP), Y8
	MOVQ n8+24(FP), CX
	XORQ AX, AX
a1loop:
	VMULPS  (SI)(AX*1), Y8, Y1
	VADDPS  (DI)(AX*1), Y1, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     a1loop
	VZEROUPPER
	RET

// func addAVX2(c, b *float32, n8 int)
//
// c[x] = c[x] + b[x], eight x at a time, n8 times: c is the first
// operand, as in the reference, so a NaN in c is the NaN that survives.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n8+16(FP), CX
	XORQ AX, AX
addloop:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     addloop
	VZEROUPPER
	RET

// func transBAVX2(out, a, panels *float32, k int)
//
// out[8q+l] = Σ_p a[p]·panels[q][p][l] for the four panels of k×8 floats
// (packPanels), each sum from +0 in ascending p, one accumulator a panel.
TEXT ·transBAVX2(SB), NOSPLIT, $0-32
	MOVQ    out+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    panels+16(FP), BX
	MOVQ    k+24(FP), CX
	MOVQ    CX, R9
	SHLQ    $5, R9            // one panel: 32·k bytes
	LEAQ    (R9)(R9*2), R10   // three panels
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
tbloop:
	VBROADCASTSS (SI), Y4
	VMULPS  (BX), Y4, Y5
	VADDPS  Y5, Y0, Y0
	VMULPS  (BX)(R9*1), Y4, Y6
	VADDPS  Y6, Y1, Y1
	VMULPS  (BX)(R9*2), Y4, Y7
	VADDPS  Y7, Y2, Y2
	VMULPS  (BX)(R10*1), Y4, Y8
	VADDPS  Y8, Y3, Y3
	ADDQ    $4, SI
	ADDQ    $32, BX
	DECQ    CX
	JNZ     tbloop
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// TRANSPOSE4 stores the four columns of the 4×4 blocks held in the two
// 128-bit halves of a, b, c and d (rows 0–3 low, rows 4–7 high) as four
// 8-lane rows at off(R11): an unpack pairs rows (0,1) and (2,3), a
// shuffle joins the pairs.
#define TRANSPOSE4(a, b, c, d, off) \
	VUNPCKLPS b, a, Y8; \
	VUNPCKHPS b, a, Y9; \
	VUNPCKLPS d, c, Y10; \
	VUNPCKHPS d, c, Y11; \
	VSHUFPS   $0x44, Y10, Y8, Y12; \
	VSHUFPS   $0xEE, Y10, Y8, Y13; \
	VSHUFPS   $0x44, Y11, Y9, Y14; \
	VSHUFPS   $0xEE, Y11, Y9, Y15; \
	VMOVUPS   Y12, off(R11); \
	VMOVUPS   Y13, off+32(R11); \
	VMOVUPS   Y14, off+64(R11); \
	VMOVUPS   Y15, off+96(R11)

// func packAVX2(dst, b *float32, k, np int)
//
// The 8×8 blocks of packPanels for np whole panels and the first
// 8·⌊k/8⌋ elements of each row: block q of panel j is B's rows 8j … 8j+7
// at 8q … 8q+7, transposed. Row r and row r+4 share a register, one per
// 128-bit half, so each half is a 4×4 transpose.
TEXT ·packAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ k+16(FP), R8
	MOVQ np+24(FP), DX
	MOVQ R8, R9
	SHRQ $3, R9                 // 8×8 blocks per panel
	SHLQ $2, R8                 // one row of B: 4·k bytes
	LEAQ (R8)(R8*2), R12        // three rows
	MOVQ R8, R13
	SHLQ $3, R13                // eight rows: one panel, in B and in dst
panel:
	MOVQ SI, AX                 // rows 0, 1, 2, 4 off AX
	LEAQ (SI)(R12*1), R10       // rows 3, 5, 6, 7 off R10
	MOVQ DI, R11
	MOVQ R9, CX
block:
	VMOVUPS     (AX), X0
	VINSERTF128 $1, (AX)(R8*4), Y0, Y0
	VMOVUPS     (AX)(R8*1), X1
	VINSERTF128 $1, (R10)(R8*2), Y1, Y1
	VMOVUPS     (AX)(R8*2), X2
	VINSERTF128 $1, (R10)(R12*1), Y2, Y2
	VMOVUPS     (R10), X3
	VINSERTF128 $1, (R10)(R8*4), Y3, Y3
	VMOVUPS     16(AX), X4
	VINSERTF128 $1, 16(AX)(R8*4), Y4, Y4
	VMOVUPS     16(AX)(R8*1), X5
	VINSERTF128 $1, 16(R10)(R8*2), Y5, Y5
	VMOVUPS     16(AX)(R8*2), X6
	VINSERTF128 $1, 16(R10)(R12*1), Y6, Y6
	VMOVUPS     16(R10), X7
	VINSERTF128 $1, 16(R10)(R8*4), Y7, Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3, 0)
	TRANSPOSE4(Y4, Y5, Y6, Y7, 128)
	ADDQ $32, AX
	ADDQ $32, R10
	ADDQ $256, R11
	DECQ CX
	JNZ  block
	ADDQ R13, SI
	ADDQ R13, DI
	DECQ DX
	JNZ  panel
	VZEROUPPER
	RET
