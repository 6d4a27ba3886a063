//go:build amd64 && !race

#include "textflag.h"

// The value codec's fast paths in SSE2, the GOAMD64=v1 baseline, so no
// CPU check is needed. Each loop does, four lanes at a time, the float32
// and integer operations its Go form in quant.go does one value at a
// time, in the same order and with no fused multiply-add, so the bytes
// and residual bits are the Go form's; TestCodecKernelEdges and
// FuzzQuantizeMatchesReference hold both to the reference. The callers
// in quant.go check the lengths:
//
//   - quantizeINT8SSE2 is QuantizeINT8 with feedback on a non-empty
//     block, len(dst) = 4+len(vals) = 4+len(res). It returns false,
//     having written nothing, for a block the Go form sends down its
//     slow path: an Inf or NaN, or a scale of 0 or too small to invert.
//   - dequantizeINT8SSE2 is DequantizeINT8 on a non-empty block,
//     len(src) = 4+len(dst).
//   - quantizeFP16SSE2 (with feedback) and dequantizeFP16SSE2 convert
//     whole groups of four, len(dst) = 2*len(vals) and len(src) =
//     2*len(dst), up to the first group holding a value the Go form's
//     fast path refuses, and return how many values they converted; the
//     caller hands that group, or the tail of fewer than four, to Go.
//
// The INT8 kernels take the whole block: a loop of four (the decoder's
// after one of sixteen), then a tail of single values.

// BCAST sets the four lanes of x to the 32-bit constant c.
#define BCAST(c, x) MOVL $c, R11; MOVL R11, x; PSHUFD $0, x, x

// MAXL sets each lane of m to max(m, a), signed 32-bit; clobbers a and t.
#define MAXL(a, m, t) MOVO a, t; PCMPGTL m, t; PXOR m, a; PAND t, a; PXOR a, m

// SUMS folds x = vals[i]+res[i], which the caller has put in X2, into
// the signs X1 (an OR) and |x|'s bits into the max X0; clobbers X2, X3.
#define SUMS POR X2, X1; PAND X7, X2; MAXL(X2, X0, X3)

// ROUND rounds x in X2 as QuantizeINT8 does: k = trunc(fl(fl(x*inv) +
// copysign(0.5, x) or 0.5)) into X4, and the residual x - fl(k*scale)
// into X2.
#define ROUND MOVO X2, X3; PAND X10, X3; POR X11, X3; MOVO X2, X4; MULPS X9, X4; ADDPS X3, X4; CVTTPS2PL X4, X4; CVTPL2PS X4, X3; MULPS X8, X3; SUBPS X3, X2

// func quantizeINT8SSE2(dst []byte, vals, res []float32) bool
TEXT ·quantizeINT8SSE2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), CX
	MOVQ res_base+48(FP), DX
	MOVQ CX, BX
	ANDQ $~3, BX
	BCAST(0x7fffffff, X7)
	PXOR X0, X0 // max of |x|'s bits, per lane
	PXOR X1, X1 // OR of x's bits, per lane

	XORQ AX, AX
	JMP  maxcheck
maxloop:
	MOVUPS (SI)(AX*4), X2
	MOVUPS (DX)(AX*4), X3
	ADDPS  X3, X2
	SUMS
	ADDQ   $4, AX
maxcheck:
	CMPQ AX, BX
	JB   maxloop
	JMP  maxtailcheck
maxtail:
	MOVSS (SI)(AX*4), X2 // clears lanes 1-3, which the max and OR ignore
	MOVSS (DX)(AX*4), X3
	ADDSS X3, X2
	SUMS
	INCQ  AX
maxtailcheck:
	CMPQ AX, CX
	JB   maxtail

	PSHUFD $0x4e, X0, X2
	MAXL(X2, X0, X3)
	PSHUFD $0xb1, X0, X2
	MAXL(X2, X0, X3)
	MOVL   X0, R8
	CMPL   R8, $0x7f800000
	JAE    slow            // Inf or NaN
	BCAST(0x42fe0000, X8)  // 127
	DIVSS  X8, X0          // scale
	BCAST(0x3f800000, X9)  // 1
	DIVSS  X0, X9          // inv
	MOVL   X9, R8
	CMPL   R8, $0x7f800000
	JAE    slow            // scale 0, or too small to invert
	MOVSS  X0, (DI)
	PSHUFD $0, X0, X8
	PSHUFD $0, X9, X9
	MOVMSKPS X1, R8
	XORL   R9, R9
	MOVL   $0x80000000, R10
	TESTL  R8, R8
	CMOVLNE R10, R9        // the block has a sign bit: round by copysign(0.5, x)
	MOVL   R9, X10
	PSHUFD $0, X10, X10
	BCAST(0x3f000000, X11) // 0.5

	XORQ AX, AX
	JMP  roundcheck
roundloop:
	MOVUPS (SI)(AX*4), X2
	MOVUPS (DX)(AX*4), X3
	ADDPS  X3, X2
	ROUND
	MOVUPS X2, (DX)(AX*4)
	PACKSSLW X4, X4        // |k| <= 127: the packs saturate nothing
	PACKSSWB X4, X4
	MOVL   X4, 4(DI)(AX*1)
	ADDQ   $4, AX
roundcheck:
	CMPQ AX, BX
	JB   roundloop
	JMP  roundtailcheck
roundtail:
	MOVSS (SI)(AX*4), X2
	MOVSS (DX)(AX*4), X3
	ADDSS X3, X2
	ROUND
	MOVSS X2, (DX)(AX*4)
	MOVL  X4, R8
	MOVB  R8, 4(DI)(AX*1)
	INCQ  AX
roundtailcheck:
	CMPQ AX, CX
	JB   roundtail
	MOVB $1, ret+72(FP)
	RET
slow:
	MOVB $0, ret+72(FP)
	RET

// func dequantizeINT8SSE2(dst []float32, src []byte)
TEXT ·dequantizeINT8SSE2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVSS  (SI), X7
	PSHUFD $0, X7, X7 // scale
	ADDQ   $4, SI
	MOVQ   CX, BX
	ANDQ   $~3, BX
	MOVQ   CX, DX
	ANDQ   $~15, DX

	XORQ AX, AX
	JMP  check16
loop16:
	MOVOU     (SI)(AX*1), X0
	MOVO      X0, X2
	PUNPCKLBW X0, X0 // bytes 0-7 to the top of their words
	PUNPCKHBW X2, X2 // bytes 8-15
	MOVO      X0, X1
	MOVO      X2, X3
	PUNPCKLWL X0, X0 // and to the top of their lanes
	PUNPCKHWL X1, X1
	PUNPCKLWL X2, X2
	PUNPCKHWL X3, X3
	PSRAL     $24, X0
	PSRAL     $24, X1
	PSRAL     $24, X2
	PSRAL     $24, X3
	CVTPL2PS  X0, X0
	CVTPL2PS  X1, X1
	CVTPL2PS  X2, X2
	CVTPL2PS  X3, X3
	MULPS     X7, X0
	MULPS     X7, X1
	MULPS     X7, X2
	MULPS     X7, X3
	MOVUPS    X0, (DI)(AX*4)
	MOVUPS    X1, 16(DI)(AX*4)
	MOVUPS    X2, 32(DI)(AX*4)
	MOVUPS    X3, 48(DI)(AX*4)
	ADDQ      $16, AX
check16:
	CMPQ AX, DX
	JB   loop16
	JMP  check
loop:
	MOVL      (SI)(AX*1), X0
	PUNPCKLBW X0, X0 // each byte to the top of its lane
	PUNPCKLWL X0, X0
	PSRAL     $24, X0 // sign-extended: 0x80 is -128
	CVTPL2PS  X0, X0
	MULPS     X7, X0
	MOVUPS    X0, (DI)(AX*4)
	ADDQ      $4, AX
check:
	CMPQ AX, BX
	JB   loop
	JMP  tailcheck
tail:
	MOVBLSX  (SI)(AX*1), R8
	CVTSL2SS R8, X0
	MULSS    X7, X0
	MOVSS    X0, (DI)(AX*4)
	INCQ     AX
tailcheck:
	CMPQ AX, CX
	JB   tail
	RET

// func quantizeFP16SSE2(dst []byte, vals, res []float32) int
TEXT ·quantizeFP16SSE2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), BX
	ANDQ $~3, BX
	MOVQ res_base+48(FP), DX
	BCAST(0x7fffffff, X7)
	BCAST(0x47800000, X8)  // 2^31 - 113<<23: |x| in range maps below ...
	BCAST(0x8e7fffff, X9)  // ... this, signed: exponents 113..141
	BCAST(1, X10)
	BCAST(0xfff, X11)
	BCAST(0xffffe000, X12)
	BCAST(0x40000000, X13) // -112<<26, mod 2^32
	BCAST(0x80000000, X14)

	XORQ AX, AX
	JMP  check
loop:
	MOVUPS   (SI)(AX*4), X0
	MOVUPS   (DX)(AX*4), X1
	ADDPS    X1, X0 // x
	MOVO     X0, X1
	PAND     X7, X1
	PADDL    X8, X1
	PCMPGTL  X9, X1
	PMOVMSKB X1, CX
	TESTL    CX, CX
	JNZ      done   // a lane narrowFP16 refuses: the group is Go's
	MOVO     X0, X1
	PSRLL    $13, X1
	PAND     X10, X1
	PADDL    X11, X1
	PADDL    X0, X1 // w = b + 0xfff + the kept lsb
	MOVO     X1, X2
	PAND     X12, X2
	MOVO     X0, X3
	SUBPS    X2, X3
	MOVUPS   X3, (DX)(AX*4) // x - h widened
	PSLLL    $3, X1
	PADDL    X13, X1        // h's exponent and mantissa in the top half
	PAND     X14, X0
	POR      X0, X1         // and its sign
	PSRAL    $16, X1        // h sign-extended, so the pack saturates nothing
	PACKSSLW X1, X1
	MOVQ     X1, (DI)(AX*2)
	ADDQ     $4, AX
check:
	CMPQ AX, BX
	JB   loop
done:
	MOVQ AX, ret+72(FP)
	RET

// func dequantizeFP16SSE2(dst []float32, src []byte) int
TEXT ·dequantizeFP16SSE2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	ANDQ $~3, BX
	MOVQ src_base+24(FP), SI
	BCAST(0x80000000, X7)
	BCAST(0x7fff0000, X8)
	BCAST(0x7c000000, X9)  // 2^31 - 1<<26: normal halves map below ...
	BCAST(0xf7ffffff, X10) // ... this, signed: exponents 1..30
	BCAST(0x38000000, X11) // 112<<23

	XORQ AX, AX
	JMP  check
loop:
	MOVQ      (SI)(AX*2), X0
	PUNPCKLWL X0, X0 // h in both halves of its lane
	MOVO      X0, X1
	PAND      X8, X1 // |h| << 16
	MOVO      X1, X2
	PADDL     X9, X2
	PCMPGTL   X10, X2
	PMOVMSKB  X2, CX
	TESTL     CX, CX
	JNZ       done   // a half that is not normal: the group is Go's
	PSRLL     $3, X1
	PADDL     X11, X1
	PAND      X7, X0
	POR       X1, X0
	MOVUPS    X0, (DI)(AX*4)
	ADDQ      $4, AX
check:
	CMPQ AX, BX
	JB   loop
done:
	MOVQ AX, ret+48(FP)
	RET
