package vec

import "fmt"

// This file holds the dense-layer kernels of the relevance network
// (DESIGN §5): one call computes TileRows output neurons of a layer for
// a block of decision units held lane-interleaved, x[j*lanes+k] being
// input j of unit k, so each SIMD lane carries one unit through the
// whole sum. On amd64 with AVX2 and FMA the tiles run in assembly
// (dense_amd64.s); everywhere else the generic Go loop runs. In float64
// both do the same arithmetic in the same order and agree bit for bit; in
// float32 the assembly fuses each multiply-add, which changes rounding
// only.

// Lane and tile widths of the dense-layer kernels.
const (
	Lanes64  = 4 // float64 units per call: one 256-bit register
	Lanes32  = 8 // float32 units per call: one 256-bit register
	TileRows = 8 // output neurons per call
)

// DenseTile64 computes rows (1..TileRows) output neurons of a dense layer
// for a block of Lanes64 units. Row r of the weights starts at w[r*stride]
// and holds in values; for r < rows and k < Lanes64 it stores
//
//	y[r*Lanes64+k] = b[r] + w[r*stride]*x[k] + w[r*stride+1]*x[Lanes64+k] + ...
//
// summed left to right, each product rounded before it is added. That is
// the order of nn's forward pass, so the result is bit-identical to it.
// y must not overlap x or w.
func DenseTile64(y, b, w []float64, stride, rows int, x []float64, in int) {
	checkTile(len(y), len(b), len(w), stride, rows, len(x), in, Lanes64)
	if denseASM {
		denseTile64AVX2(&y[0], &b[0], &w[0], stride, rows, &x[0], in)
		return
	}
	denseTileGeneric(Lanes64, y, b, w, stride, rows, x, in)
}

// DenseTile32 is DenseTile64 in float32 for a block of Lanes32 units, in
// the same order. The assembly fuses each multiply-add; the generic loop
// rounds the product first, so the two differ by rounding.
func DenseTile32(y, b, w []float32, stride, rows int, x []float32, in int) {
	checkTile(len(y), len(b), len(w), stride, rows, len(x), in, Lanes32)
	if denseASM {
		denseTile32AVX2(&y[0], &b[0], &w[0], stride, rows, &x[0], in)
		return
	}
	denseTileGeneric(Lanes32, y, b, w, stride, rows, x, in)
}

// checkTile panics unless every slice covers what the kernel reads or
// writes: the assembly indexes raw pointers.
func checkTile(ny, nb, nw, stride, rows, nx, in, lanes int) {
	if rows < 1 || rows > TileRows || in < 1 || stride < in ||
		ny < rows*lanes || nb < rows || nw < (rows-1)*stride+in || nx < in*lanes {
		panic(fmt.Sprintf("vec: dense tile out of bounds: rows=%d in=%d stride=%d lanes=%d, len y=%d b=%d w=%d x=%d",
			rows, in, stride, lanes, ny, nb, nw, nx))
	}
}

// denseTileGeneric is the portable tile, and the reference the assembly
// is tested against.
func denseTileGeneric[T float32 | float64](lanes int, y, b, w []T, stride, rows int, x []T, in int) {
	x = x[:in*lanes]
	for r := 0; r < rows; r++ {
		row := w[r*stride : r*stride+in]
		for k := 0; k < lanes; k++ {
			s := b[r]
			for j, wj := range row {
				s += wj * x[j*lanes+k]
			}
			y[r*lanes+k] = s
		}
	}
}
