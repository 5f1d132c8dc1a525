package vec

import "fmt"

// This file holds the float32 / int8 conversions backing the arena model
// format (DESIGN §10). Arena-loaded systems store embeddings as
// contiguous float32 (or int8 with per-vector scales); the helpers below
// widen and dequantize those buffers without per-token allocation. The
// arena's scorer weights feed DenseTile32 (dense.go) in place.

// Widen converts src into dst element-wise (float32 → float64). The
// slices must have equal length.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Dequant8 writes scale*q[i] into dst: the inverse of the arena's int8
// per-vector quantization. The slices must have equal length.
func Dequant8(dst []float64, q []int8, scale float64) {
	if len(dst) != len(q) {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", len(dst), len(q)))
	}
	for i, v := range q {
		dst[i] = scale * float64(v)
	}
}
