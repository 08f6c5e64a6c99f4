//go:build amd64 && !noasm

#include "textflag.h"

// fillConsts<>: the SplitMix64 stream offsets k·γ for lanes k = 1..16 (the
// 16γ entry is also the per-iteration step), then the finaliser's two
// multipliers.
DATA fillConsts<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA fillConsts<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA fillConsts<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA fillConsts<>+24(SB)/8, $0x78dde6e5fd29f054
DATA fillConsts<>+32(SB)/8, $0x1715609f7c746c69
DATA fillConsts<>+40(SB)/8, $0xb54cda58fbbee87e
DATA fillConsts<>+48(SB)/8, $0x538454127b096493
DATA fillConsts<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
DATA fillConsts<>+64(SB)/8, $0x8ff34785799e5cbd
DATA fillConsts<>+72(SB)/8, $0x2e2ac13ef8e8d8d2
DATA fillConsts<>+80(SB)/8, $0xcc623af8783354e7
DATA fillConsts<>+88(SB)/8, $0x6a99b4b1f77dd0fc
DATA fillConsts<>+96(SB)/8, $0x08d12e6b76c84d11
DATA fillConsts<>+104(SB)/8, $0xa708a824f612c926
DATA fillConsts<>+112(SB)/8, $0x454021de755d453b
DATA fillConsts<>+120(SB)/8, $0xe3779b97f4a7c150
DATA fillConsts<>+128(SB)/8, $0xbf58476d1ce4e5b9
DATA fillConsts<>+136(SB)/8, $0x94d049bb133111eb
GLOBL fillConsts<>(SB), RODATA|NOPTR, $144

// func fillRowAVX512(row []float32, state uint64)
//
// row[j] = float32(int32(z_j>>40) - 1<<23) · 2^-23 with z_j the SplitMix64
// output for state+(j+1)γ, sixteen elements per iteration; len(row) must be
// a multiple of 16. Z0/Z1 hold the states of elements 0..7 and 8..15 of the
// current step. The finaliser's last z ^= z>>31 is skipped as in the Go
// loop: it cannot change bits 40..63.
TEXT ·fillRowAVX512(SB), NOSPLIT, $0-32
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	TESTQ CX, CX
	JZ   done

	VPBROADCASTQ state+24(FP), Z9
	VPADDQ       fillConsts<>+0(SB), Z9, Z0
	VPADDQ       fillConsts<>+64(SB), Z9, Z1
	VPBROADCASTQ fillConsts<>+120(SB), Z8    // 16γ
	VPBROADCASTQ fillConsts<>+128(SB), Z2
	VPBROADCASTQ fillConsts<>+136(SB), Z3
	MOVL         $0x00800000, AX             // 1<<23
	VPBROADCASTD AX, Z5
	MOVL         $0x34000000, AX             // float32 2^-23
	VPBROADCASTD AX, Z6

loop:
	VPSRLQ  $30, Z0, Z10
	VPSRLQ  $30, Z1, Z11
	VPXORQ  Z0, Z10, Z10
	VPXORQ  Z1, Z11, Z11
	VPMULLQ Z2, Z10, Z10
	VPMULLQ Z2, Z11, Z11
	VPSRLQ  $27, Z10, Z12
	VPSRLQ  $27, Z11, Z13
	VPXORQ  Z12, Z10, Z10
	VPXORQ  Z13, Z11, Z11
	VPMULLQ Z3, Z10, Z10
	VPMULLQ Z3, Z11, Z11
	VPSRLQ  $40, Z10, Z10
	VPSRLQ  $40, Z11, Z11
	VPMOVQD Z10, Y10
	VPMOVQD Z11, Y11
	VINSERTI64X4 $1, Y11, Z10, Z10
	VPSUBD    Z5, Z10, Z10
	VCVTDQ2PS Z10, Z10
	VMULPS    Z6, Z10, Z10
	VMOVUPS   Z10, (DI)

	VPADDQ Z8, Z0, Z0
	VPADDQ Z8, Z1, Z1
	ADDQ   $64, DI
	SUBQ   $16, CX
	JNZ    loop

	VZEROUPPER

done:
	RET
