package vec

import "fmt"

// This file holds the dense-layer kernels of the relevance network
// (DESIGN §5): one call computes TileRows output neurons of a layer for
// a block of decision units held lane-interleaved, x[j*lanes+k] being
// input j of unit k, so each SIMD lane carries one unit through the
// whole sum. There are two widths. DenseTile64 and DenseTile32 fill one
// 256-bit register (4 float64 or 8 float32 lanes) and run in assembly on
// amd64 with AVX2 and FMA. WideTile64 and WideTile32 fill one 512-bit
// register (8 or 16 lanes) and run in assembly on amd64 with AVX-512F.
// Everywhere else the generic Go loop runs. In float64 every path does
// the same arithmetic in the same order and agrees bit for bit; in
// float32 the assembly of both widths fuses each multiply-add in the
// same order, so the two widths agree bit for bit and differ from the
// generic loop by rounding only.
//
// ScoreTile64 and ScoreTile32 name the width the relevance scorer runs
// on this machine, chosen once at init from CPUID and XGETBV (tilePaths).
// The scorer's trainer (nn.FitCtx) runs on ScoreTile64 too.

// Lane and tile widths of the dense-layer kernels.
const (
	Lanes64     = 4  // float64 units per DenseTile64 call: one 256-bit register
	Lanes32     = 8  // float32 units per DenseTile32 call: one 256-bit register
	WideLanes64 = 8  // float64 units per WideTile64 call: one 512-bit register
	WideLanes32 = 16 // float32 units per WideTile32 call: one 512-bit register
	TileRows    = 8  // output neurons per call
)

// A Tile computes rows (1..TileRows) output neurons of a dense layer for
// one block of units; DenseTile64 documents the contract. The lane count
// is not part of the type: ScoreTile64 and ScoreTile32 return it beside
// the tile.
type Tile[T float32 | float64] func(y, b, w []T, stride, rows int, x []T, in int)

// ScoreTile64 returns the float64 tile the relevance scorer runs and its
// lane count: WideTile64 where the 512-bit assembly runs, else
// DenseTile64. Every choice gives the same bits.
func ScoreTile64() (lanes int, tile Tile[float64]) {
	if denseZMM {
		return WideLanes64, WideTile64
	}
	return Lanes64, DenseTile64
}

// ScoreTile32 is ScoreTile64 in float32: WideTile32 where the 512-bit
// assembly runs, else DenseTile32.
func ScoreTile32() (lanes int, tile Tile[float32]) {
	if denseZMM {
		return WideLanes32, WideTile32
	}
	return Lanes32, DenseTile32
}

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

// WideTile64 is DenseTile64 for a block of WideLanes64 units, with the
// same arithmetic in the same order.
func WideTile64(y, b, w []float64, stride, rows int, x []float64, in int) {
	checkTile(len(y), len(b), len(w), stride, rows, len(x), in, WideLanes64)
	if denseZMM {
		denseTile64AVX512(&y[0], &b[0], &w[0], stride, rows, &x[0], in)
		return
	}
	denseTileGeneric(WideLanes64, y, b, w, stride, rows, x, in)
}

// WideTile32 is DenseTile32 for a block of WideLanes32 units. Its
// assembly fuses the same terms in the same order as DenseTile32's, so
// each lane equals DenseTile32's on the same unit bit for bit.
func WideTile32(y, b, w []float32, stride, rows int, x []float32, in int) {
	checkTile(len(y), len(b), len(w), stride, rows, len(x), in, WideLanes32)
	if denseZMM {
		denseTile32AVX512(&y[0], &b[0], &w[0], stride, rows, &x[0], in)
		return
	}
	denseTileGeneric(WideLanes32, y, b, w, stride, rows, x, in)
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

// cpuWords are the raw CPUID and XGETBV words the tile choice reads.
type cpuWords struct {
	maxLeaf uint32 // CPUID.0:EAX, the highest basic leaf
	ecx1    uint32 // CPUID.1:ECX: FMA, OSXSAVE, AVX
	ebx7    uint32 // CPUID.(7,0):EBX: AVX2, AVX512F
	xcr0    uint32 // XCR0's low word; 0 unless OSXSAVE is set
}

// tilePaths decides which assembly tiles a machine may run. avx2 needs
// FMA, AVX and AVX2, and an operating system that saves the XMM and YMM
// state (OSXSAVE, XCR0 bits 1 and 2). zmm needs all of that, AVX512F, and
// an operating system that also saves the opmask and both halves of the
// ZMM state (XCR0 bits 5, 6 and 7): without them a context switch would
// lose the upper lanes.
func tilePaths(w cpuWords) (avx2, zmm bool) {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2Bit = 1 << 5  // CPUID.(7,0):EBX
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		xmmYmm  = 0x06    // XCR0: SSE and AVX state
		zmmAll  = 0xE6    // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if w.maxLeaf < 7 || w.ecx1&(fma|osxsave|avx) != fma|osxsave|avx || w.xcr0&xmmYmm != xmmYmm {
		return false, false
	}
	avx2 = w.ebx7&avx2Bit != 0
	zmm = avx2 && w.ebx7&avx512f != 0 && w.xcr0&zmmAll == zmmAll
	return avx2, zmm
}
