#include "textflag.h"

// func gemm4x8SSE2(c *float32, ldc int, w *float32, ldw int, x *float32, ldx, k int)
//
// c[i*ldc+j] += w[t*ldw+i]·x[t*ldx+j] for t in [0, k), i < 4, j < 8. The 4×8
// block of c lives in X0–X7 (two registers per row) for the whole loop.
// Per tile the four Ŵ values are loaded once and broadcast with PSHUFD;
// every lane then takes one MULPS (the rounded product) and one ADDPS
// (the rounded add) — the scalar r += w*x sequence, four lanes at a time.
TEXT ·gemm4x8SSE2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	MOVQ w+16(FP), SI
	MOVQ ldw+24(FP), R11
	SHLQ $2, R11
	MOVQ x+32(FP), BX
	MOVQ ldx+40(FP), AX
	SHLQ $2, AX
	MOVQ k+48(FP), CX

	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 0(R8), X2
	MOVUPS 16(R8), X3
	MOVUPS 0(R9), X4
	MOVUPS 16(R9), X5
	MOVUPS 0(R10), X6
	MOVUPS 16(R10), X7

	TESTQ CX, CX
	JEQ   store

loop:
	MOVUPS 0(BX), X8
	MOVUPS 16(BX), X9
	MOVUPS 0(SI), X10

	PSHUFD $0x00, X10, X11
	MOVAPS X11, X12
	MULPS  X8, X11
	MULPS  X9, X12
	ADDPS  X11, X0
	ADDPS  X12, X1

	PSHUFD $0x55, X10, X13
	MOVAPS X13, X14
	MULPS  X8, X13
	MULPS  X9, X14
	ADDPS  X13, X2
	ADDPS  X14, X3

	PSHUFD $0xAA, X10, X11
	MOVAPS X11, X12
	MULPS  X8, X11
	MULPS  X9, X12
	ADDPS  X11, X4
	ADDPS  X12, X5

	PSHUFD $0xFF, X10, X13
	MOVAPS X13, X14
	MULPS  X8, X13
	MULPS  X9, X14
	ADDPS  X13, X6
	ADDPS  X14, X7

	ADDQ R11, SI
	ADDQ AX, BX
	DECQ CX
	JNZ  loop

store:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 0(R8)
	MOVUPS X3, 16(R8)
	MOVUPS X4, 0(R9)
	MOVUPS X5, 16(R9)
	MOVUPS X6, 0(R10)
	MOVUPS X7, 16(R10)
	RET
