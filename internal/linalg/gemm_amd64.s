// AVX2+FMA micro-kernels for the packed GEMM engine and the row axpy
// of the blocked LU and substitutions. Selected at start-up by cpuHasAVX2FMA; every caller
// is gated on useAsm, so these routines may assume AVX2 and FMA3.
#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA (bit 12), OSXSAVE (bit 27) and AVX
// (bit 28); XCR0 must enable XMM+YMM state (bits 1,2); and
// CPUID.7.0:EBX must report AVX2 (bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemm4x8(kc int, ap, bp, c *float64, ldc, mode int)
//
// Computes the 4×8 tile T[r][s] = Σ_p ap[4p+r]·bp[8p+s] over a depth-kc
// packed A micro-panel (column-major 4-row groups) and packed B
// micro-panel (row-major 8-col groups), then applies it to C (row
// stride ldc elements) according to mode: 0 store, 1 add, 2 subtract.
// The 8 YMM accumulators never touch memory inside the loop, so the
// inner loop runs at FMA throughput rather than load/store bandwidth.
TEXT ·gemm4x8(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8 // row stride in bytes
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	MOVQ mode+40(FP), AX
	CMPQ AX, $1
	JE   addmode
	CMPQ AX, $2
	JE   submode

	// mode 0: C = T
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
	VZEROUPPER
	RET

addmode:
	// mode 1: C += T
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y2, Y2
	VADDPD  32(DX), Y3, Y3
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y4, Y4
	VADDPD  32(DX), Y5, Y5
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R8, DX
	VADDPD  (DX), Y6, Y6
	VADDPD  32(DX), Y7, Y7
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

submode:
	// mode 2: C -= T
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VSUBPD  Y0, Y8, Y8
	VSUBPD  Y1, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R8, DX
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VSUBPD  Y2, Y8, Y8
	VSUBPD  Y3, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R8, DX
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VSUBPD  Y4, Y8, Y8
	VSUBPD  Y5, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	ADDQ    R8, DX
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VSUBPD  Y6, Y8, Y8
	VSUBPD  Y7, Y9, Y9
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	VZEROUPPER
	RET

// func axpyAsm(a float64, x, y *float64, n int)
//
// y += a·x, 16 elements per iteration with FMA.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, DX
	SHRQ         $4, DX
	JZ           tailsetup
loop16:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     64(DI), Y3
	VMOVUPD     96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        DX
	JNZ         loop16
tailsetup:
	ANDQ $15, CX
	JZ   done2
	// Scalar tail: a stays in X0's low lane after VZEROUPPER.
	VZEROUPPER
tail2:
	MOVSD (SI), X1
	MULSD X0, X1
	ADDSD (DI), X1
	MOVSD X1, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   tail2
	RET
done2:
	VZEROUPPER
	RET
