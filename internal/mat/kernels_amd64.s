#include "textflag.h"

// The update kernels' argument-reading macros stand ahead of the first
// TEXT: go vet checks every (FP) reference against the TEXT above it.

// UPDSETUP(mask) loads the update kernels' state: SI = x, CX = the
// row stride in bytes, DI = t, R10 = acc, the sign-bit mask broadcast
// into mask, AX = 0 (the byte offset of the column block) and R11 = the
// bytes in the whole blocks of 32 columns, with ZF set when there are
// none.
#define UPDSETUP(mask) \
	MOVQ x_base+0(FP), SI;           \
	MOVQ x_len+8(FP), CX;            \
	SHLQ $3, CX;                     \
	MOVQ t_base+24(FP), DI;          \
	MOVQ acc_base+96(FP), R10;       \
	MOVQ $0x8000000000000000, R8;    \
	MOVQ R8, X15;                    \
	VBROADCASTSD X15, mask;          \
	XORQ AX, AX;                     \
	MOVQ CX, R11;                    \
	ANDQ $-256, R11

// ROWSTART points BX at rows, DX at a and R9 at the row count, for a
// walk over the rows of one column block.
#define ROWSTART \
	MOVQ rows_base+48(FP), BX; \
	MOVQ a_base+72(FP), DX;    \
	MOVQ rows_len+56(FP), R9

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

// func cpuHasAVX512() bool
//
// Runs only once cpuHasAVX2 holds, so leaf 7 and XGETBV exist.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	// XCR0 bits 1, 2 and 5–7: the OS saves XMM, YMM, opmask and the
	// upper halves of Z0–Z15 and all of Z16–Z31.
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no

	// Leaf 7 sub-leaf 0 EBX: bit 16 AVX512F.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
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
// in axpyGeneric; the loops are axpyTail's.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	JMP          axpyTail<>(SB)

// func axpyAVX512(a float64, x, y []float64)
//
// axpyAVX2 with 32 elements per iteration in Z1..Z4, the same multiply
// then add per element; the last len mod 32 elements go to axpyTail,
// with Y0 the low half of Z0.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Z0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, BX
	SHRQ         $5, BX
	JZ           axpyz32done

axpyz32:
	VMULPD  (SI), Z0, Z1
	VMULPD  64(SI), Z0, Z2
	VMULPD  128(SI), Z0, Z3
	VMULPD  192(SI), Z0, Z4
	VADDPD  (DI), Z1, Z1
	VADDPD  64(DI), Z2, Z2
	VADDPD  128(DI), Z3, Z3
	VADDPD  192(DI), Z4, Z4
	VMOVUPD Z1, (DI)
	VMOVUPD Z2, 64(DI)
	VMOVUPD Z3, 128(DI)
	VMOVUPD Z4, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	DECQ    BX
	JNZ     axpyz32

axpyz32done:
	ANDQ $31, CX
	JMP  axpyTail<>(SB)

// axpyTail adds a·x to y over CX elements, x at SI and y at DI, with
// a broadcast in Y0: sixteen elements per iteration, then blocks of
// four, then one at a time. The axpy kernels jump here, so its RET
// returns to their caller.
TEXT axpyTail<>(SB), NOSPLIT, $0
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   axpy4

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

// ROWPTR(off, reg) sets reg to the address of row rows[off/8]: BX
// points into rows, CX holds the row stride in bytes, SI the base of t.
#define ROWPTR(off, reg) \
	MOVQ  off(BX), reg; \
	IMULQ CX, reg;      \
	ADDQ  SI, reg

// DOTROW(p, acc, tmp) adds x·row for one block of four: Y6 holds the x
// block, p points at the row and AX is the byte offset.
#define DOTROW(p, acc, tmp) \
	VMULPD (p)(AX*1), Y6, tmp; \
	VADDPD tmp, acc, acc

// DOTTAIL(p, acc) adds x[i]·row[i] into lane 0 of acc, X6 holding x[i].
#define DOTTAIL(p, acc) \
	VMULSD (p)(AX*1), X6, X13; \
	VADDSD X13, acc, acc

// DOTSUM(acc, hi) leaves (s0+s1)+(s2+s3) in lane 0 of acc, hi holding
// (s2, s3).
#define DOTSUM(acc, hi) \
	VHADDPD   hi, acc, acc; \
	VPERMILPD $1, acc, X13; \
	VADDSD    X13, acc, acc

// func dotRowsAVX2(x, t []float64, rows []int, dst []float64)
//
// Each sweep scores up to six rows, pointed to by R8..R13, against x:
// Y0..Y5 are their accumulators, each in dotAVX2's lane order, and Y6
// holds the current block of x, loaded once for all six. A sweep over
// fewer than six rows repeats its last row in the spare slots and
// stores only the real ones. The tail and the reduction are dotAVX2's,
// row by row. len(rows) must be at least 1.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ rows_base+48(FP), BX
	MOVQ rows_len+56(FP), DX
	MOVQ dst_base+72(FP), DI

drsweep:
	MOVQ t_base+24(FP), SI
	MOVQ x_len+8(FP), CX
	SHLQ $3, CX
	ROWPTR(0, R8)
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	MOVQ R8, R12
	MOVQ R8, R13
	CMPQ DX, $2
	JLT  drrows
	ROWPTR(8, R9)
	MOVQ R9, R10
	MOVQ R9, R11
	MOVQ R9, R12
	MOVQ R9, R13
	CMPQ DX, $3
	JLT  drrows
	ROWPTR(16, R10)
	MOVQ R10, R11
	MOVQ R10, R12
	MOVQ R10, R13
	CMPQ DX, $4
	JLT  drrows
	ROWPTR(24, R11)
	MOVQ R11, R12
	MOVQ R11, R13
	CMPQ DX, $5
	JLT  drrows
	ROWPTR(32, R12)
	MOVQ R12, R13
	CMPQ DX, $6
	JLT  drrows
	ROWPTR(40, R13)

drrows:
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	SHRQ   $2, CX
	SHLQ   $5, CX           // bytes in the whole blocks of four
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	TESTQ  CX, CX
	JZ     drtail

drloop:
	VMOVUPD (SI)(AX*1), Y6
	DOTROW(R8, Y0, Y7)
	DOTROW(R9, Y1, Y8)
	DOTROW(R10, Y2, Y9)
	DOTROW(R11, Y3, Y10)
	DOTROW(R12, Y4, Y11)
	DOTROW(R13, Y5, Y12)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     drloop

drtail:
	// X7..X12 = (s2, s3) of each row, before the scalar adds below
	// clear the upper halves of Y0..Y5.
	VEXTRACTF128 $1, Y0, X7
	VEXTRACTF128 $1, Y1, X8
	VEXTRACTF128 $1, Y2, X9
	VEXTRACTF128 $1, Y3, X10
	VEXTRACTF128 $1, Y4, X11
	VEXTRACTF128 $1, Y5, X12
	MOVQ         x_len+8(FP), CX
	ANDQ         $3, CX
	JZ           drsum

drtailloop:
	VMOVSD (SI)(AX*1), X6
	DOTTAIL(R8, X0)
	DOTTAIL(R9, X1)
	DOTTAIL(R10, X2)
	DOTTAIL(R11, X3)
	DOTTAIL(R12, X4)
	DOTTAIL(R13, X5)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    drtailloop

drsum:
	DOTSUM(X0, X7)
	DOTSUM(X1, X8)
	DOTSUM(X2, X9)
	DOTSUM(X3, X10)
	DOTSUM(X4, X11)
	DOTSUM(X5, X12)
	VMOVSD X0, (DI)
	CMPQ   DX, $2
	JLT    drnext
	VMOVSD X1, 8(DI)
	CMPQ   DX, $3
	JLT    drnext
	VMOVSD X2, 16(DI)
	CMPQ   DX, $4
	JLT    drnext
	VMOVSD X3, 24(DI)
	CMPQ   DX, $5
	JLT    drnext
	VMOVSD X4, 32(DI)
	CMPQ   DX, $6
	JLT    drnext
	VMOVSD X5, 40(DI)

drnext:
	ADDQ $48, BX
	ADDQ $48, DI
	SUBQ $6, DX
	JG   drsweep
	VZEROUPPER
	RET

// UPDROW(off, acc, r, p) applies one row's update to four columns at
// byte offset AX+off: with Y4 = a_j and Y5 = −a_j broadcast and R8
// pointing at row j, acc += a_j·row and row += (−a_j)·x, each product
// rounded before its add, with axpyAVX2's operand order.
#define UPDROW(off, acc, r, p) \
	VMOVUPD off(R8)(AX*1), r;   \
	VMULPD  r, Y4, p;           \
	VADDPD  acc, p, acc;        \
	VMULPD  off(SI)(AX*1), Y5, p; \
	VADDPD  r, p, p;            \
	VMOVUPD p, off(R8)(AX*1)

// NEXTROW loads row j's address into R8, a_j into Y4 and −a_j, a_j
// with the sign bit flipped (Y15 holds the mask), into Y5.
#define NEXTROW \
	MOVQ         (BX), R8;  \
	IMULQ        CX, R8;    \
	ADDQ         DI, R8;    \
	VBROADCASTSD (DX), Y4;  \
	VXORPD       Y15, Y4, Y5

// ROWEND steps to the next row and loops back to label while rows
// remain.
#define ROWEND(label) \
	ADDQ $8, BX; \
	ADDQ $8, DX; \
	DECQ R9;     \
	JNZ  label

// func updateRowsAVX2(x, t []float64, rows []int, a, acc []float64)
//
// Column block by column block, the block of acc stays in registers
// while the rows go by in order: 32 columns in Y0..Y3 and Y6..Y9 here,
// then updateRowsTail's blocks of four and single columns. Each row's
// block is loaded once, feeds acc, gets its own update and is stored
// before the next row loads, so a repeated row sees its own update. x
// is reloaded for every row. len(rows) must be at least 1.
TEXT ·updateRowsAVX2(SB), NOSPLIT, $0-120
	UPDSETUP(Y15)
	JZ ur32done

ur32:
	VMOVUPD (R10)(AX*1), Y0
	VMOVUPD 32(R10)(AX*1), Y1
	VMOVUPD 64(R10)(AX*1), Y2
	VMOVUPD 96(R10)(AX*1), Y3
	VMOVUPD 128(R10)(AX*1), Y6
	VMOVUPD 160(R10)(AX*1), Y7
	VMOVUPD 192(R10)(AX*1), Y8
	VMOVUPD 224(R10)(AX*1), Y9
	ROWSTART

ur32row:
	NEXTROW
	UPDROW(0, Y0, Y10, Y11)
	UPDROW(32, Y1, Y12, Y13)
	UPDROW(64, Y2, Y10, Y11)
	UPDROW(96, Y3, Y12, Y13)
	UPDROW(128, Y6, Y10, Y11)
	UPDROW(160, Y7, Y12, Y13)
	UPDROW(192, Y8, Y10, Y11)
	UPDROW(224, Y9, Y12, Y13)
	ROWEND(ur32row)
	VMOVUPD Y0, (R10)(AX*1)
	VMOVUPD Y1, 32(R10)(AX*1)
	VMOVUPD Y2, 64(R10)(AX*1)
	VMOVUPD Y3, 96(R10)(AX*1)
	VMOVUPD Y6, 128(R10)(AX*1)
	VMOVUPD Y7, 160(R10)(AX*1)
	VMOVUPD Y8, 192(R10)(AX*1)
	VMOVUPD Y9, 224(R10)(AX*1)
	ADDQ    $256, AX
	CMPQ    AX, R11
	JLT     ur32

ur32done:
	JMP updateRowsTail<>(SB)

// UPDROWZ is UPDROW on eight columns: Z4 = a_j and Z5 = −a_j.
#define UPDROWZ(off, acc, r, p) \
	VMOVUPD off(R8)(AX*1), r;   \
	VMULPD  r, Z4, p;           \
	VADDPD  acc, p, acc;        \
	VMULPD  off(SI)(AX*1), Z5, p; \
	VADDPD  r, p, p;            \
	VMOVUPD p, off(R8)(AX*1)

// NEXTROWZ is NEXTROW broadcasting to Z4 and Z5, with Z15 the mask.
// VPXORQ is AVX512F's integer xor; VXORPD on ZMM would need AVX512DQ.
#define NEXTROWZ \
	MOVQ         (BX), R8;  \
	IMULQ        CX, R8;    \
	ADDQ         DI, R8;    \
	VBROADCASTSD (DX), Z4;  \
	VPXORQ       Z15, Z4, Z5

// func updateRowsAVX512(x, t []float64, rows []int, a, acc []float64)
//
// updateRowsAVX2 with each block of 32 columns in Z0..Z3, eight per
// register; every element sees the same multiply, then add, in the same
// order. The remaining columns go to updateRowsTail, with Y15 the low
// half of Z15. Only Z0–Z15 are used, so updateRowsTail's VZEROUPPER
// returns all of the upper AVX-512 state to its initial state.
TEXT ·updateRowsAVX512(SB), NOSPLIT, $0-120
	UPDSETUP(Z15)
	JZ uz32done

uz32:
	VMOVUPD (R10)(AX*1), Z0
	VMOVUPD 64(R10)(AX*1), Z1
	VMOVUPD 128(R10)(AX*1), Z2
	VMOVUPD 192(R10)(AX*1), Z3
	ROWSTART

uz32row:
	NEXTROWZ
	UPDROWZ(0, Z0, Z6, Z7)
	UPDROWZ(64, Z1, Z8, Z9)
	UPDROWZ(128, Z2, Z10, Z11)
	UPDROWZ(192, Z3, Z12, Z13)
	ROWEND(uz32row)
	VMOVUPD Z0, (R10)(AX*1)
	VMOVUPD Z1, 64(R10)(AX*1)
	VMOVUPD Z2, 128(R10)(AX*1)
	VMOVUPD Z3, 192(R10)(AX*1)
	ADDQ    $256, AX
	CMPQ    AX, R11
	JLT     uz32

uz32done:
	JMP updateRowsTail<>(SB)

// updateRowsTail finishes an update kernel from column byte offset AX,
// a multiple of 256, with UPDSETUP's SI, CX, DI and R10 and the mask
// in Y15: blocks of four columns in Y0, then one column at a time. The
// update kernels jump here with their frame, so it reads their
// arguments and its RET returns to their caller.
TEXT updateRowsTail<>(SB), NOSPLIT, $0-120
	MOVQ CX, R11
	ANDQ $-32, R11                // bytes in the whole blocks of four
	CMPQ AX, R11
	JGE  urtail

ur4block:
	VMOVUPD (R10)(AX*1), Y0
	ROWSTART

ur4row:
	NEXTROW
	UPDROW(0, Y0, Y10, Y11)
	ROWEND(ur4row)
	VMOVUPD Y0, (R10)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     ur4block

urtail:
	CMPQ   AX, CX
	JGE    urdone
	VMOVSD (R10)(AX*1), X0
	ROWSTART

urtailrow:
	NEXTROW
	VMOVSD (R8)(AX*1), X6
	VMULSD X6, X4, X10
	VADDSD X0, X10, X0
	VMULSD (SI)(AX*1), X5, X10
	VADDSD X6, X10, X10
	VMOVSD X10, (R8)(AX*1)
	ROWEND(urtailrow)
	VMOVSD X0, (R10)(AX*1)
	ADDQ   $8, AX
	JMP    urtail

urdone:
	VZEROUPPER
	RET
