//go:build amd64

#include "textflag.h"

// Dense-layer tiles (dense.go). Eight accumulators, one per output neuron
// of the tile, each holding one decision unit per lane: Y0..Y7 in the
// 256-bit tiles, Z0..Z7 in the 512-bit ones. Row r of a tile reads weight
// row and bias min(r, rows-1), so a partial tile recomputes its last row;
// only rows < rows are stored. Every lane sums b + w[0]*x[0] + w[1]*x[1] +
// ... in index order. The float64 tiles round each product before adding
// it (VMULPD then VADDPD, never FMA): the generic Go loop's arithmetic, bit
// for bit. The float32 tiles fuse the multiply-add, which differs from the
// generic loop by rounding only; the two widths fuse the same terms in the
// same order, so a lane of the 512-bit tile equals the same lane of the
// 256-bit one bit for bit.
//
// Registers: AX BX CX DX SI DI R8 R9 weight row pointers, R10 x, R11 j,
// R12 row stride in bytes (then in), R13 rows, R14 bias pointer.
//
// Every macro that reads an argument sits above the first TEXT block, so
// go vet's asmdecl does not take it for part of a function.

// NEXTROW sets cur to the next weight row (prev when the tile has no row
// n) and broadcasts that row's bias into acc.
#define NEXTROW(prev, cur, n, esz, bcast, acc) \
	LEAQ (prev)(R12*1), cur; \
	LEAQ esz(R14), R11; \
	CMPQ R13, $n; \
	CMOVQLE prev, cur; \
	CMOVQGT R11, R14; \
	bcast (R14), acc

// SETUP loads the arguments, the eight row pointers and the biases into
// a0..a7; esz is the element size in bytes, 1<<shift.
#define SETUP(esz, shift, bcast, a0, a1, a2, a3, a4, a5, a6, a7) \
	MOVQ b+8(FP), R14; \
	MOVQ w+16(FP), AX; \
	MOVQ stride+24(FP), R12; \
	SHLQ $shift, R12; \
	MOVQ rows+32(FP), R13; \
	bcast (R14), a0; \
	NEXTROW(AX, BX, 1, esz, bcast, a1); \
	NEXTROW(BX, CX, 2, esz, bcast, a2); \
	NEXTROW(CX, DX, 3, esz, bcast, a3); \
	NEXTROW(DX, SI, 4, esz, bcast, a4); \
	NEXTROW(SI, DI, 5, esz, bcast, a5); \
	NEXTROW(DI, R8, 6, esz, bcast, a6); \
	NEXTROW(R8, R9, 7, esz, bcast, a7); \
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

// MAC64Z is MAC64 on 512-bit registers, the weight broadcast from memory
// by the multiply itself.
#define MAC64Z(row, tmp, acc) \
	VMULPD.BCST (row)(R11*8), Z8, tmp; \
	VADDPD tmp, acc, acc

// FMA32Z is FMA32 on 512-bit registers.
#define FMA32Z(row, acc) \
	VFMADD231PS.BCST (row)(R11*4), Z8, acc

// STORE writes the tile's first rows accumulators Y0..Y7 to y, 32 bytes
// each.
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

// STOREZ is STORE for Z0..Z7, 64 bytes each.
#define STOREZ(mov) \
	MOVQ y+0(FP), R10; \
	MOVQ rows+32(FP), R13; \
	mov Z0, (R10); \
	CMPQ R13, $1; \
	JLE  done; \
	mov Z1, 64(R10); \
	CMPQ R13, $2; \
	JLE  done; \
	mov Z2, 128(R10); \
	CMPQ R13, $3; \
	JLE  done; \
	mov Z3, 192(R10); \
	CMPQ R13, $4; \
	JLE  done; \
	mov Z4, 256(R10); \
	CMPQ R13, $5; \
	JLE  done; \
	mov Z5, 320(R10); \
	CMPQ R13, $6; \
	JLE  done; \
	mov Z6, 384(R10); \
	CMPQ R13, $7; \
	JLE  done; \
	mov Z7, 448(R10)

// func denseTile64AVX2(y, b, w *float64, stride, rows int, x *float64, in int)
TEXT ·denseTile64AVX2(SB), NOSPLIT, $0-56
	SETUP(8, 3, VBROADCASTSD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

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
	SETUP(4, 2, VBROADCASTSS, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

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

// func denseTile64AVX512(y, b, w *float64, stride, rows int, x *float64, in int)
TEXT ·denseTile64AVX512(SB), NOSPLIT, $0-56
	SETUP(8, 3, VBROADCASTSD, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

loop:
	VMOVUPD (R10), Z8 // input j of the eight units
	MAC64Z(AX, Z9, Z0)
	MAC64Z(BX, Z10, Z1)
	MAC64Z(CX, Z11, Z2)
	MAC64Z(DX, Z12, Z3)
	MAC64Z(SI, Z13, Z4)
	MAC64Z(DI, Z14, Z5)
	MAC64Z(R8, Z15, Z6)
	MAC64Z(R9, Z16, Z7)
	ADDQ $64, R10
	INCQ R11
	CMPQ R11, R12
	JLT  loop

	STOREZ(VMOVUPD)

done:
	VZEROUPPER
	RET

// func denseTile32AVX512(y, b, w *float32, stride, rows int, x *float32, in int)
TEXT ·denseTile32AVX512(SB), NOSPLIT, $0-56
	SETUP(4, 2, VBROADCASTSS, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

loop:
	VMOVUPS (R10), Z8 // input j of the sixteen units
	FMA32Z(AX, Z0)
	FMA32Z(BX, Z1)
	FMA32Z(CX, Z2)
	FMA32Z(DX, Z3)
	FMA32Z(SI, Z4)
	FMA32Z(DI, Z5)
	FMA32Z(R8, Z6)
	FMA32Z(R9, Z7)
	ADDQ $64, R10
	INCQ R11
	CMPQ R11, R12
	JLT  loop

	STOREZ(VMOVUPS)

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
