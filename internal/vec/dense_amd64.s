//go:build amd64

#include "textflag.h"

// Dense-layer tiles (dense.go). Eight accumulators Y0..Y7, one per output
// neuron of the tile, each holding one decision unit per lane. Row r of a
// tile reads weight row and bias min(r, rows-1), so a partial tile
// recomputes its last row; only rows < rows are stored. Every lane sums
// b + w[0]*x[0] + w[1]*x[1] + ... in index order. The float64 tile rounds
// each product before adding it (VMULPD then VADDPD, never FMA): the
// generic Go loop's arithmetic, bit for bit. The float32 tile fuses the
// multiply-add, which differs from the generic loop by rounding only.
//
// Registers: AX BX CX DX SI DI R8 R9 weight row pointers, R10 x, R11 j,
// R12 row stride in bytes (then in), R13 rows, R14 bias pointer.

// NEXTROW sets cur to the next weight row (prev when the tile has no row
// n) and broadcasts that row's bias into acc.
#define NEXTROW(prev, cur, n, esz, bcast, acc) \
	LEAQ (prev)(R12*1), cur; \
	LEAQ esz(R14), R11; \
	CMPQ R13, $n; \
	CMOVQLE prev, cur; \
	CMOVQGT R11, R14; \
	bcast (R14), acc

// SETUP loads the arguments, the eight row pointers and the biases; esz
// is the element size in bytes, 1<<shift.
#define SETUP(esz, shift, bcast) \
	MOVQ b+8(FP), R14; \
	MOVQ w+16(FP), AX; \
	MOVQ stride+24(FP), R12; \
	SHLQ $shift, R12; \
	MOVQ rows+32(FP), R13; \
	bcast (R14), Y0; \
	NEXTROW(AX, BX, 1, esz, bcast, Y1); \
	NEXTROW(BX, CX, 2, esz, bcast, Y2); \
	NEXTROW(CX, DX, 3, esz, bcast, Y3); \
	NEXTROW(DX, SI, 4, esz, bcast, Y4); \
	NEXTROW(SI, DI, 5, esz, bcast, Y5); \
	NEXTROW(DI, R8, 6, esz, bcast, Y6); \
	NEXTROW(R8, R9, 7, esz, bcast, Y7); \
	MOVQ x+40(FP), R10; \
	MOVQ in+48(FP), R12; \
	XORQ R11, R11

// MAC64 adds the rounded product w[row][j]*x[j] to acc in every lane.
#define MAC64(row, tmp, acc) \
	VBROADCASTSD (row)(R11*8), tmp; \
	VMULPD Y8, tmp, tmp; \
	VADDPD tmp, acc, acc

// FMA32 adds w[row][j]*x[j] to acc in every lane, fused.
#define FMA32(row, tmp, acc) \
	VBROADCASTSS (row)(R11*4), tmp; \
	VFMADD231PS Y8, tmp, acc

// STORE writes the tile's first rows accumulators to y, 32 bytes each.
#define STORE(mov) \
	MOVQ y+0(FP), R10; \
	MOVQ rows+32(FP), R13; \
	mov Y0, (R10); \
	CMPQ R13, $1; \
	JLE  done; \
	mov Y1, 32(R10); \
	CMPQ R13, $2; \
	JLE  done; \
	mov Y2, 64(R10); \
	CMPQ R13, $3; \
	JLE  done; \
	mov Y3, 96(R10); \
	CMPQ R13, $4; \
	JLE  done; \
	mov Y4, 128(R10); \
	CMPQ R13, $5; \
	JLE  done; \
	mov Y5, 160(R10); \
	CMPQ R13, $6; \
	JLE  done; \
	mov Y6, 192(R10); \
	CMPQ R13, $7; \
	JLE  done; \
	mov Y7, 224(R10)

// func denseTile64AVX2(y, b, w *float64, stride, rows int, x *float64, in int)
TEXT ·denseTile64AVX2(SB), NOSPLIT, $0-56
	SETUP(8, 3, VBROADCASTSD)

loop:
	VMOVUPD (R10), Y8 // input j of the four units
	MAC64(AX, Y9, Y0)
	MAC64(BX, Y10, Y1)
	MAC64(CX, Y11, Y2)
	MAC64(DX, Y12, Y3)
	MAC64(SI, Y13, Y4)
	MAC64(DI, Y14, Y5)
	MAC64(R8, Y15, Y6)
	MAC64(R9, Y9, Y7)
	ADDQ $32, R10
	INCQ R11
	CMPQ R11, R12
	JLT  loop

	STORE(VMOVUPD)

done:
	VZEROUPPER
	RET

// func denseTile32AVX2(y, b, w *float32, stride, rows int, x *float32, in int)
TEXT ·denseTile32AVX2(SB), NOSPLIT, $0-56
	SETUP(4, 2, VBROADCASTSS)

loop:
	VMOVUPS (R10), Y8 // input j of the eight units
	FMA32(AX, Y9, Y0)
	FMA32(BX, Y10, Y1)
	FMA32(CX, Y11, Y2)
	FMA32(DX, Y12, Y3)
	FMA32(SI, Y13, Y4)
	FMA32(DI, Y14, Y5)
	FMA32(R8, Y15, Y6)
	FMA32(R9, Y9, Y7)
	ADDQ $32, R10
	INCQ R11
	CMPQ R11, R12
	JLT  loop

	STORE(VMOVUPS)

done:
	VZEROUPPER
	RET

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
