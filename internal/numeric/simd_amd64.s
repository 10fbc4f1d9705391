#include "textflag.h"

// AVX2 kernels of the convolution and spline-resampling loops. No FMA:
// every lane performs the multiplies, adds, subtracts and divides of the
// Go expression it replaces, in the same order, so each output is
// bit-identical to the scalar loop.

// Lane offsets {0, 1, 2, 3}, the per-iteration index step 4 and the
// constant 6 of the spline's h*h/6 term, as float64 bit patterns.
DATA laneIdx<>+0(SB)/8, $0x0000000000000000
DATA laneIdx<>+8(SB)/8, $0x3ff0000000000000
DATA laneIdx<>+16(SB)/8, $0x4000000000000000
DATA laneIdx<>+24(SB)/8, $0x4008000000000000
GLOBL laneIdx<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $0x4010000000000000
DATA four<>+8(SB)/8, $0x4010000000000000
DATA four<>+16(SB)/8, $0x4010000000000000
DATA four<>+24(SB)/8, $0x4010000000000000
GLOBL four<>(SB), RODATA|NOPTR, $32

DATA six<>+0(SB)/8, $0x4018000000000000
DATA six<>+8(SB)/8, $0x4018000000000000
DATA six<>+16(SB)/8, $0x4018000000000000
DATA six<>+24(SB)/8, $0x4018000000000000
GLOBL six<>(SB), RODATA|NOPTR, $32

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), CPUID
// reports AVX and OSXSAVE (leaf 1, ECX bits 28 and 27), and the OS saves
// the XMM and YMM register state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func convRowAVX2(row []float64, a float64, b []float64)
//
// row[j] += a*b[j] for j < len(b); the caller guarantees len(row) ==
// len(b). Per element: p = b[j]*a, then row[j] = p + row[j], the operand
// order of the compiled Go loop.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         row_base+0(FP), DI
	MOVQ         b_base+32(FP), SI
	MOVQ         b_len+40(FP), CX
	VBROADCASTSD a+24(FP), Y0

	CMPQ CX, $16
	JLT  tail4

loop16:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     loop16

tail4:
	CMPQ    CX, $4
	JLT     tail1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     tail4

tail1:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    tail1

done:
	VZEROUPPER
	RET

// func segmentRowAVX2(out []float64, k0, lo, step, x0, x1, y0, y1, m0, m1 float64)
//
// Evaluates the cubic of one spline segment [x0, x1] at the grid points
// t = lo + k*step, k = k0, k0+1, ..., four at a time; len(out) must be a
// multiple of 4. Per lane, in the order of Spline.segmentAt:
//
//	h = x1 - x0
//	A = (x1 - t)/h
//	B = (t - x0)/h
//	out = (A*y0 + B*y1) + ((((A*A)*A - A)*m0 + ((B*B)*B - B)*m1)*h)*h/6
TEXT ·segmentRowAVX2(SB), NOSPLIT, $0-96
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	SHRQ         $2, CX
	JZ           segdone
	VBROADCASTSD k0+24(FP), Y0
	VADDPD       laneIdx<>(SB), Y0, Y0
	VBROADCASTSD lo+32(FP), Y5
	VBROADCASTSD step+40(FP), Y4
	VBROADCASTSD x0+48(FP), Y6
	VBROADCASTSD x1+56(FP), Y7
	VBROADCASTSD y0+64(FP), Y9
	VBROADCASTSD y1+72(FP), Y10
	VBROADCASTSD m0+80(FP), Y11
	VBROADCASTSD m1+88(FP), Y12
	VSUBPD       Y6, Y7, Y8 // h = x1 - x0

segloop:
	VMULPD Y4, Y0, Y1  // k*step
	VADDPD Y1, Y5, Y1  // t = lo + k*step
	VSUBPD Y1, Y7, Y2  // x1 - t
	VDIVPD Y8, Y2, Y2  // A
	VSUBPD Y6, Y1, Y3  // t - x0
	VDIVPD Y8, Y3, Y3  // B
	VMULPD Y9, Y2, Y1  // A*y0
	VMULPD Y10, Y3, Y13 // B*y1
	VADDPD Y13, Y1, Y1 // A*y0 + B*y1
	VMULPD Y2, Y2, Y13 // A*A
	VMULPD Y2, Y13, Y13 // (A*A)*A
	VSUBPD Y2, Y13, Y13 // - A
	VMULPD Y11, Y13, Y13 // * m0
	VMULPD Y3, Y3, Y2  // B*B
	VMULPD Y3, Y2, Y2  // (B*B)*B
	VSUBPD Y3, Y2, Y2  // - B
	VMULPD Y12, Y2, Y2 // * m1
	VADDPD Y2, Y13, Y13 // sum of the curvature terms
	VMULPD Y8, Y13, Y13 // * h
	VMULPD Y8, Y13, Y13 // * h
	VDIVPD six<>(SB), Y13, Y13 // / 6
	VADDPD Y13, Y1, Y1
	VMOVUPD Y1, (DI)
	VADDPD four<>(SB), Y0, Y0
	ADDQ   $32, DI
	DECQ   CX
	JNZ    segloop

	VZEROUPPER

segdone:
	RET
