//go:build amd64

#include "textflag.h"

// CPUID/XGETBV feature probes (feature_amd64.go).

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
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

// func dgemm4x8(dst, pa, pb *float64, k, n int)
//
// One full GEBP micro-tile: 4 packed rows of a (pa, kk-major, 4 doubles
// per k step) against one 8-wide packed panel of b (pb, kk-major, 8
// doubles per k step). Eight YMM accumulators hold the 4×8 tile across
// the whole k loop; each k step is 2 panel loads, 4 row broadcasts and
// 8 fused multiply-adds. Every accumulator lane folds ascending-k with
// a single rounding per term — the vector form of the scalar math.FMA
// fold, so stored results are bit-identical to the naive reference.
// Stores write straight to dst with row stride n (caller guarantees the
// full tile is in bounds).
TEXT ·dgemm4x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ pa+8(FP), SI
	MOVQ pb+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

kloop:
	VMOVUPD      (DX), Y8       // b panel, lanes 0-3
	VMOVUPD      32(DX), Y9     // b panel, lanes 4-7
	VBROADCASTSD (SI), Y10      // a row 0
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11     // a row 1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12    // a row 2
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13    // a row 3
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, DX
	ADDQ         $32, SI
	DECQ         CX
	JNZ          kloop

	SHLQ    $3, R8              // row stride in bytes
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func dgemm4x8s(c, a0, a1, a2, a3, b *float64, sa, ldb, ldc, k, panels int, acc bool)
//
// A row of 4×8 micro-tiles from strided, unpacked operands: tile p
// covers c columns [8p, 8p+8) and b lanes [8p, 8p+8). Row r of a steps
// through memory from ar by sa doubles per k step (sa may be 0), and
// b's lanes step by ldb doubles. Each tile starts from zero, or from
// the values already in c when acc is set — storing a partial fold and
// reloading it is exact, so a fold split over several calls is the
// same fold. Each k step is 2 b loads, 4 row broadcasts and 8 fused
// multiply-adds, ascending-k with one rounding per term: the same
// per-element fold as dgemm4x8. c has row stride ldc.
TEXT ·dgemm4x8s(SB), NOSPLIT, $0-89
	MOVQ c+0(FP), DI
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ b+40(FP), BX
	MOVQ sa+48(FP), R12
	MOVQ ldb+56(FP), R13
	MOVQ ldc+64(FP), R8
	SHLQ $3, R12                // strides in bytes
	SHLQ $3, R13
	SHLQ $3, R8

spanel:
	MOVQ    panels+80(FP), CX
	TESTQ   CX, CX
	JZ      sdone
	MOVBLZX acc+88(FP), AX
	TESTQ   AX, AX
	JZ      szero
	MOVQ    DI, DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	ADDQ    R8, DX
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	ADDQ    R8, DX
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	ADDQ    R8, DX
	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7
	JMP     sstart

szero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

sstart:
	MOVQ  k+72(FP), CX
	XORQ  AX, AX                // byte offset into every a row
	MOVQ  BX, DX
	TESTQ CX, CX
	JZ    sstore

skloop:
	VMOVUPD      (DX), Y8       // b lanes 0-3
	VMOVUPD      32(DX), Y9     // b lanes 4-7
	VBROADCASTSD (SI)(AX*1), Y10  // a row 0
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (R9)(AX*1), Y11  // a row 1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (R10)(AX*1), Y12 // a row 2
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (R11)(AX*1), Y13 // a row 3
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R12, AX
	ADDQ         R13, DX
	DECQ         CX
	JNZ          skloop

sstore:
	MOVQ    DI, DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R8, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    $64, DI             // next tile: 8 columns of c, 8 lanes of b
	ADDQ    $64, BX
	DECQ    panels+80(FP)
	JMP     spanel

sdone:
	VZEROUPPER
	RET

// func addRows(dst, src *float64, n, rows, ldd, lds int)
//
// dst[r*ldd+i] += src[r*lds+i] for r < rows, i < n: four lanes per
// VADDPD, then scalar VADDSD for the last n%4. Each sum has the dst
// value as its first operand, like the scalar Go dst[i] += src[i], so
// NaN payloads propagate the same way.
TEXT ·addRows(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ rows+24(FP), BX
	MOVQ ldd+32(FP), R8
	MOVQ lds+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	TESTQ BX, BX
	JZ   adone

arow:
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ CX, DX

avec:
	CMPQ    DX, $4
	JLT     ascalar
	VMOVUPD (R10), Y0
	VADDPD  (R11), Y0, Y0
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, DX
	JMP     avec

ascalar:
	TESTQ  DX, DX
	JZ     anext
	VMOVSD (R10), X0
	VADDSD (R11), X0, X0
	VMOVSD X0, (R10)
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   DX
	JMP    ascalar

anext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JNZ  arow

adone:
	VZEROUPPER
	RET

// func gemv16(dst, w, x, bias *float64, k int)
//
// One 16-output dense-forward block over lane-packed weights (w,
// kk-major, 16 doubles per k step). Four YMM accumulators run four
// independent fused multiply-add chains — one rounding per term, the
// vector form of the math.FMA fold the training layer's GEMM uses, so
// the compiled plan is bit-identical to the uncompiled layer. Bias is
// added once after the k loop, like the layer's bias pass.
TEXT ·gemv16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ bias+24(FP), BX
	MOVQ k+32(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

kloop16:
	VBROADCASTSD (DX), Y4       // x[kk]
	VFMADD231PD  (SI), Y4, Y0   // s += w*x, one rounding
	VFMADD231PD  32(SI), Y4, Y1
	VFMADD231PD  64(SI), Y4, Y2
	VFMADD231PD  96(SI), Y4, Y3
	ADDQ         $128, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          kloop16

	VADDPD  (BX), Y0, Y0        // + bias, after the fold
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
