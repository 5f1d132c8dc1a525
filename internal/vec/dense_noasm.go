//go:build !amd64

package vec

// Non-amd64 builds always run the generic dense-layer tiles.
var denseASM, denseZMM = false, false

// The assembly kernels are never called when denseASM and denseZMM are
// false; these stubs keep the portable build compiling.
func denseTile64AVX2(y, b, w *float64, stride, rows int, x *float64, in int) {}

func denseTile32AVX2(y, b, w *float32, stride, rows int, x *float32, in int) {}

func denseTile64AVX512(y, b, w *float64, stride, rows int, x *float64, in int) {}

func denseTile32AVX512(y, b, w *float32, stride, rows int, x *float32, in int) {}
