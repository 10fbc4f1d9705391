#include "textflag.h"

// AVX2 kernels of the convolution and spline-resampling loops. No FMA:
// every lane performs the multiplies, adds, subtracts and divides of the
// Go expression it replaces, in the same order, so each output is
// bit-identical to the scalar loop.

// Lane offsets {0, 1, 2, 3}, the per-iteration index step 4, the
// constant 1 of the spline's boundary row and the constant 6 of its
// right side and h*h/6 term, as float64 bit patterns.
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

DATA one<>+0(SB)/8, $0x3ff0000000000000
DATA one<>+8(SB)/8, $0x3ff0000000000000
DATA one<>+16(SB)/8, $0x3ff0000000000000
DATA one<>+24(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32

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

// func convGather16AVX2(out []float64, a []float64, bw []float64) bool
//
// Sixteen convolution outputs at once, each accumulated in a register:
// out[g] = sum over j = 0..n-1, in that order, of bw[n-1-j+g]*a[j];
// n = len(a) >= 1, len(bw) == n+15, len(out) >= 16, and every bw value
// is finite. Per term: p = b*a, then acc = p + acc, the operand order
// of the compiled Go loop.
// A zero a[j] is not skipped: with b finite its terms are ±0, which
// leave a sum that started at +0 unchanged. Returns false, with out
// unwritten, when some a[j] is ±Inf or NaN, checked four at a time as
// (a - a) == 0.
TEXT ·convGather16AVX2(SB), NOSPLIT, $0-73
	MOVQ   out_base+0(FP), R9
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), CX
	MOVQ   bw_base+48(FP), DI
	LEAQ   -8(DI)(CX*8), DI // &bw[n-1]
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y14, Y14, Y14

gloop4:
	CMPQ      CX, $4
	JLT       gtail
	VMOVUPD   (SI), Y12
	VSUBPD    Y12, Y12, Y13
	VCMPPD    $0, Y14, Y13, Y13 // a - a == 0: a finite
	VMOVMSKPD Y13, AX
	CMPL      AX, $15
	JNE       gbad

#define GTERM(aoff, boff) \
	VBROADCASTSD aoff(SI), Y0 \
	VMOVUPD      boff(DI), Y1 \
	VMOVUPD      boff+32(DI), Y2 \
	VMOVUPD      boff+64(DI), Y3 \
	VMOVUPD      boff+96(DI), Y8 \
	VMULPD       Y0, Y1, Y1 \
	VMULPD       Y0, Y2, Y2 \
	VMULPD       Y0, Y3, Y3 \
	VMULPD       Y0, Y8, Y8 \
	VADDPD       Y4, Y1, Y4 \
	VADDPD       Y5, Y2, Y5 \
	VADDPD       Y6, Y3, Y6 \
	VADDPD       Y7, Y8, Y7

	GTERM(0, 0)
	GTERM(8, -8)
	GTERM(16, -16)
	GTERM(24, -24)
	ADDQ $32, SI
	SUBQ $32, DI
	SUBQ $4, CX
	JMP  gloop4

gtail:
	TESTQ   CX, CX
	JZ      gdone
	VMOVSD  (SI), X12
	VSUBSD  X12, X12, X13
	VUCOMISD X14, X13
	JNE     gbad
	JP      gbad
	GTERM(0, 0)
	ADDQ    $8, SI
	SUBQ    $8, DI
	DECQ    CX
	JMP     gtail

gdone:
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, 64(R9)
	VMOVUPD Y7, 96(R9)
	VZEROUPPER
	MOVB    $1, ret+72(FP)
	RET

gbad:
	VZEROUPPER
	MOVB $0, ret+72(FP)
	RET

// func thomas4AVX2(x, y, m, b, c, d []float64, stop int)
//
// solveNatural on four systems of n >= 3 knots at once, one per lane:
// every slice holds 4n values, row i of system l at index 4i+l. Each
// lane performs solveNatural's operations in its order, so its m is
// bit-identical to a lone solve; the back-substitution stops after
// row stop, leaving m of the rows below unwritten.
TEXT ·thomas4AVX2(SB), NOSPLIT, $0-152
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ m_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ c_base+96(FP), R10
	MOVQ d_base+120(FP), R11
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX             // n
	MOVQ stop+144(FP), R12

	VMOVUPD one<>(SB), Y0   // bp: row 0 has pivot 1,
	VXORPD  Y1, Y1, Y1      // cp: super-diagonal 0
	VXORPD  Y2, Y2, Y2      // dp: and right side 0
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R10)
	VMOVUPD Y2, (R11)
	VMOVUPD 32(SI), Y3
	VSUBPD  (SI), Y3, Y3    // h = x[1] - x[0]
	VMOVUPD 32(DI), Y4
	VSUBPD  (DI), Y4, Y4
	VDIVPD  Y3, Y4, Y4      // s0 = (y[1] - y[0])/h
	VMOVUPD six<>(SB), Y15

	MOVQ CX, DX
	SUBQ $2, DX             // rows 1 .. n-2
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11

tfwd:
	VMOVUPD 32(SI), Y5
	VSUBPD  (SI), Y5, Y5    // g = x[i+1] - x[i]
	VMOVUPD 32(DI), Y6
	VSUBPD  (DI), Y6, Y6
	VDIVPD  Y5, Y6, Y6      // t = (y[i+1] - y[i])/g
	VDIVPD  Y0, Y3, Y7      // w = h/bp
	VADDPD  Y5, Y3, Y8      // h + g
	VADDPD  Y8, Y8, Y8      // 2*(h + g), exactly
	VMULPD  Y1, Y7, Y9      // w*cp
	VSUBPD  Y9, Y8, Y0      // bp = 2*(h + g) - w*cp
	VSUBPD  Y4, Y6, Y10     // t - s0
	VMULPD  Y15, Y10, Y10   // 6*(t - s0)
	VMULPD  Y2, Y7, Y11     // w*dp
	VSUBPD  Y11, Y10, Y2    // dp = 6*(t - s0) - w*dp
	VMOVAPD Y5, Y1          // cp = g
	VMOVUPD Y0, (R9)
	VMOVUPD Y5, (R10)
	VMOVUPD Y2, (R11)
	VMOVAPD Y5, Y3          // h = g
	VMOVAPD Y6, Y4          // s0 = t
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    DX
	JNZ     tfwd

	// Row n-1 has sub-diagonal 0, pivot 1 and right side 0.
	VXORPD  Y12, Y12, Y12
	VDIVPD  Y0, Y12, Y7     // w = 0/bp
	VMULPD  Y2, Y7, Y9
	VSUBPD  Y9, Y12, Y9     // 0 - w*dp
	VMULPD  Y1, Y7, Y10
	VMOVUPD one<>(SB), Y13
	VSUBPD  Y10, Y13, Y10   // 1 - w*cp
	VDIVPD  Y10, Y9, Y9     // m[n-1]
	MOVQ    CX, AX
	DECQ    AX
	SHLQ    $5, AX
	ADDQ    AX, R8          // &m[row n-1]
	VMOVUPD Y9, (R8)

	MOVQ CX, DX
	SUBQ $2, DX             // row n-2
	CMPQ DX, R12
	JLT  tdone

tbwd:
	SUBQ    $32, R8
	SUBQ    $32, R9
	SUBQ    $32, R10
	SUBQ    $32, R11
	VMOVUPD (R10), Y10
	VMULPD  Y9, Y10, Y10    // c[i]*m[i+1]
	VMOVUPD (R11), Y11
	VSUBPD  Y10, Y11, Y11   // d[i] - c[i]*m[i+1]
	VDIVPD  (R9), Y11, Y9   // m[i] = (d[i] - c[i]*m[i+1])/b[i]
	VMOVUPD Y9, (R8)
	DECQ    DX
	CMPQ    DX, R12
	JGE     tbwd

tdone:
	VZEROUPPER
	RET
