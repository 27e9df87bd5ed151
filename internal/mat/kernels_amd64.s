#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: bit 27 OSXSAVE (XGETBV usable), bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 sub-leaf 0 EBX: bit 5 AVX2.
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

// func dotAVX2(x, y []float64) float64
//
// Y0 holds s0..s3 in lanes 0..3; lane k adds x[i]·y[i] for i ≡ k (mod 4)
// over the whole blocks of four. The tail goes into s0, then the result
// is (s0+s1)+(s2+s3), the order of dotGeneric.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	SHRQ   $2, BX
	JZ     dotreduce

dotloop:
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     dotloop

dotreduce:
	// X2 = (s2, s3); VZEROUPPER keeps X0 = (s0, s1).
	VEXTRACTF128 $1, Y0, X2
	VZEROUPPER
	ANDQ         $3, CX
	JZ           dotsum

dottail:
	// s0 += x[i]·y[i]; the scalar add keeps s1 in the high lane.
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    dottail

dotsum:
	VHADDPD   X2, X0, X0 // (s0+s1, s2+s3)
	VPERMILPD $1, X0, X1
	VADDSD    X1, X0, X0
	VMOVSD    X0, ret+48(FP)
	RET

// func axpyAVX2(a float64, x, y []float64)
//
// Each element is rounded once by the multiply and once by the add, as
// in axpyGeneric. Sixteen elements per iteration, then blocks of four,
// then one at a time.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           axpy4

axpyloop16:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
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
	DECQ    BX
	JNZ     axpyloop16

axpy4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   axpytail

axpyloop4:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     axpyloop4

axpytail:
	ANDQ $3, CX
	JZ   axpydone

axpyloop1:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpyloop1

axpydone:
	VZEROUPPER
	RET
