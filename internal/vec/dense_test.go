package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the IEEE edge values mixed into the parity inputs: signed
// zeros, subnormals (of both widths), infinities and NaN, and for float64
// the finite extremes. The float32 inputs leave the extremes out: a fused
// multiply-add may legitimately stay finite where the rounded product
// overflows.
var (
	specials32 = []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, // float64 subnormals
		1e-45, -1e-40, // float32 subnormals
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	specials64 = append([]float64{math.MaxFloat64, -math.MaxFloat32}, specials32...)
)

// tileVals draws n values, mostly normal; with rate > 0 about one in rate
// is an edge value instead.
func tileVals[T float32 | float64](rng *rand.Rand, n, rate int) []T {
	specials := specials64
	if _, f32 := any(T(0)).(float32); f32 {
		specials = specials32
	}
	out := make([]T, n)
	for i := range out {
		if rate > 0 && rng.Intn(rate) == 0 {
			out[i] = T(specials[rng.Intn(len(specials))])
		} else {
			out[i] = T(rng.NormFloat64())
		}
	}
	return out
}

// sameBits reports bit equality, treating any two NaNs as equal: the
// kernels promise the same arithmetic, not the same NaN payload.
func sameBits[T float32 | float64](a, b T) bool {
	if a != a && b != b {
		return true
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// fusedClose is the float32 agreement rule: equal bits, or both finite and
// within twice the worst-case rounding error of an in-term sum, scaled by
// the sum of the terms' magnitudes.
func fusedClose(a, g float32, in int, scale float64) bool {
	if sameBits(a, g) {
		return true
	}
	d := math.Abs(float64(a) - float64(g))
	return !math.IsInf(d, 0) && !math.IsNaN(d) && d <= 2*float64(in+1)*0x1p-24*scale
}

// tileCase runs one tile through the assembly and the generic loop and
// fails unless they agree (bit for bit in float64, by fusedClose in
// float32) and the assembly left y past the tile's rows untouched.
func tileCase[T float32 | float64](t *testing.T, lanes int, tile func(y, b, w []T, stride, rows int, x []T, in int),
	rng *rand.Rand, in, stride, rows, rate int) {
	t.Helper()
	w := tileVals[T](rng, (rows-1)*stride+in, rate)
	b := tileVals[T](rng, rows, rate)
	x := tileVals[T](rng, in*lanes, rate)
	const sentinel = 12345
	asm := make([]T, (rows+1)*lanes)
	for i := range asm {
		asm[i] = sentinel
	}
	gen := make([]T, rows*lanes)
	denseASM = true
	tile(asm, b, w, stride, rows, x, in)
	denseASM = false
	tile(gen, b, w, stride, rows, x, in)
	for i := range gen {
		agree := sameBits(asm[i], gen[i])
		if a32, ok := any(asm[i]).(float32); ok && !agree {
			r, k := i/lanes, i%lanes
			scale := math.Abs(float64(b[r]))
			for j := 0; j < in; j++ {
				scale += math.Abs(float64(w[r*stride+j]) * float64(x[j*lanes+k]))
			}
			agree = fusedClose(a32, any(gen[i]).(float32), in, scale)
		}
		if !agree {
			t.Fatalf("in=%d stride=%d rows=%d rate=%d: y[%d] asm %v vs generic %v", in, stride, rows, rate, i, asm[i], gen[i])
		}
	}
	for i := rows * lanes; i < len(asm); i++ {
		if asm[i] != sentinel {
			t.Fatalf("in=%d rows=%d: asm wrote y[%d] past the tile", in, rows, i)
		}
	}
}

// TestDenseTileASMAgainstGeneric pins the exactness contract of the
// kernels: in float64 assembly and generic Go agree bit for bit, in
// float32 within the fused-rounding bound — on widths that are not
// multiples of anything, on every partial tile, with padded strides, and
// with signed zeros, subnormals, infinities and NaN in the inputs.
func TestDenseTileASMAgainstGeneric(t *testing.T) {
	if !denseASM {
		t.Skip("no dense-layer assembly on this machine")
	}
	defer func(prev bool) { denseASM = prev }(denseASM)
	rng := rand.New(rand.NewSource(11))
	for _, in := range []int{1, 2, 3, 5, 8, 13, 32, 64, 97, 192, 300} {
		for rows := 1; rows <= TileRows; rows++ {
			for _, stride := range []int{in, (in + 7) &^ 7, in + 3} {
				for _, rate := range []int{0, 16, 3} {
					tileCase(t, Lanes64, DenseTile64, rng, in, stride, rows, rate)
					tileCase(t, Lanes32, DenseTile32, rng, in, stride, rows, rate)
				}
			}
		}
	}
}

// TestDenseTileLayout checks the indexing contract on exact small
// integers: row stride, lane interleave, bias first, partial tiles.
func TestDenseTileLayout(t *testing.T) {
	const in, stride, rows = 3, 5, 3
	w := []float64{
		1, 2, 3, 99, 99,
		-1, 0, 1, 99, 99,
		2, 2, 2,
	}
	b := []float64{10, 20, 30}
	want := func(r, k int) float64 {
		s := b[r]
		for j := 0; j < in; j++ {
			s += w[r*stride+j] * float64(j*10+k) // x[j][k] = 10j + k
		}
		return s
	}
	for _, lanes := range []int{Lanes64, Lanes32} {
		t.Run(fmt.Sprint(lanes), func(t *testing.T) {
			check := func(got func(i int) float64) {
				for r := 0; r < rows; r++ {
					for k := 0; k < lanes; k++ {
						if g := got(r*lanes + k); g != want(r, k) {
							t.Fatalf("row %d lane %d: %v, want %v", r, k, g, want(r, k))
						}
					}
				}
			}
			if lanes == Lanes64 {
				x := make([]float64, in*lanes)
				for j := 0; j < in; j++ {
					for k := 0; k < lanes; k++ {
						x[j*lanes+k] = float64(j*10 + k)
					}
				}
				y := make([]float64, rows*lanes)
				DenseTile64(y, b, w, stride, rows, x, in)
				check(func(i int) float64 { return y[i] })
				return
			}
			w32, b32 := make([]float32, len(w)), make([]float32, len(b))
			for i := range w {
				w32[i] = float32(w[i])
			}
			for i := range b {
				b32[i] = float32(b[i])
			}
			x := make([]float32, in*lanes)
			for j := 0; j < in; j++ {
				for k := 0; k < lanes; k++ {
					x[j*lanes+k] = float32(j*10 + k)
				}
			}
			y := make([]float32, rows*lanes)
			DenseTile32(y, b32, w32, stride, rows, x, in)
			check(func(i int) float64 { return float64(y[i]) })
		})
	}
}

func TestDenseTilePanicsOnShortSlices(t *testing.T) {
	f := func(n int) []float64 { return make([]float64, n) }
	// rows 2, in 3, stride 4 needs y 2*Lanes64, b 2, w 4+3, x 3*Lanes64.
	DenseTile64(f(2*Lanes64), f(2), f(7), 4, 2, f(3*Lanes64), 3)
	for _, tc := range []struct {
		name             string
		y, b, w, x       []float64
		stride, rows, in int
	}{
		{"short y", f(2*Lanes64 - 1), f(2), f(7), f(3 * Lanes64), 4, 2, 3},
		{"short b", f(2 * Lanes64), f(1), f(7), f(3 * Lanes64), 4, 2, 3},
		{"short w", f(2 * Lanes64), f(2), f(6), f(3 * Lanes64), 4, 2, 3},
		{"short x", f(2 * Lanes64), f(2), f(7), f(3*Lanes64 - 1), 4, 2, 3},
		{"stride < in", f(2 * Lanes64), f(2), f(7), f(3 * Lanes64), 2, 2, 3},
		{"zero rows", f(2 * Lanes64), f(2), f(7), f(3 * Lanes64), 4, 0, 3},
		{"too many rows", f(16 * Lanes64), f(16), f(64), f(3 * Lanes64), 4, TileRows + 1, 3},
		{"zero in", f(2 * Lanes64), f(2), f(7), f(3 * Lanes64), 4, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			DenseTile64(tc.y, tc.b, tc.w, tc.stride, tc.rows, tc.x, tc.in)
		})
	}
}

func benchTile[T float32 | float64](b *testing.B, lanes int, tile func(y, bias, w []T, stride, rows int, x []T, in int)) {
	rng := rand.New(rand.NewSource(1))
	const in = 192 // the paper topology's input width
	w := tileVals[T](rng, TileRows*in, 0)
	bias := tileVals[T](rng, TileRows, 0)
	x := tileVals[T](rng, in*lanes, 0)
	y := make([]T, TileRows*lanes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tile(y, bias, w, in, TileRows, x, in)
	}
	b.ReportMetric(float64(TileRows*in*lanes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

func BenchmarkDenseTile64(b *testing.B) { benchTile(b, Lanes64, DenseTile64) }

func BenchmarkDenseTile32(b *testing.B) { benchTile(b, Lanes32, DenseTile32) }
