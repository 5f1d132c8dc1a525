package vec

import (
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

// wideCase runs one wide tile with the 512-bit assembly forced on or off
// and fails unless it agrees bit for bit with its reference on every lane
// and left y past the tile's rows untouched. The float64 reference is the
// generic loop. The float32 reference is DenseTile32 on the same units,
// split into 8-lane blocks and run on the 256-bit assembly when zmm is on
// (the generic loop when off): the two widths fuse the same terms in the
// same order.
func wideCase(t *testing.T, rng *rand.Rand, zmm bool, in, stride, rows, rate int) {
	t.Helper()
	denseZMM, denseASM = zmm, zmm
	const sentinel = 12345
	check := func(width string, lanes int, got, want func(i int) float64, n int) {
		for i := 0; i < rows*lanes; i++ {
			if !sameBits(got(i), want(i)) {
				t.Fatalf("%s zmm=%v in=%d stride=%d rows=%d rate=%d: y[%d] %v, want %v",
					width, zmm, in, stride, rows, rate, i, got(i), want(i))
			}
		}
		for i := rows * lanes; i < n; i++ {
			if got(i) != sentinel {
				t.Fatalf("%s zmm=%v in=%d rows=%d: wrote y[%d] past the tile", width, zmm, in, rows, i)
			}
		}
	}

	w := tileVals[float64](rng, (rows-1)*stride+in, rate)
	b := tileVals[float64](rng, rows, rate)
	x := tileVals[float64](rng, in*WideLanes64, rate)
	y := make([]float64, (rows+1)*WideLanes64)
	for i := range y {
		y[i] = sentinel
	}
	ref := make([]float64, rows*WideLanes64)
	WideTile64(y, b, w, stride, rows, x, in)
	denseTileGeneric(WideLanes64, ref, b, w, stride, rows, x, in)
	check("float64", WideLanes64, func(i int) float64 { return y[i] }, func(i int) float64 { return ref[i] }, len(y))

	w32 := tileVals[float32](rng, (rows-1)*stride+in, rate)
	b32 := tileVals[float32](rng, rows, rate)
	x32 := tileVals[float32](rng, in*WideLanes32, rate)
	y32 := make([]float32, (rows+1)*WideLanes32)
	for i := range y32 {
		y32[i] = sentinel
	}
	WideTile32(y32, b32, w32, stride, rows, x32, in)
	// half h holds lanes 8h..8h+7 of every input and output row.
	const halves = WideLanes32 / Lanes32
	var ref32 [halves][]float32
	for h := range halves {
		xh := make([]float32, in*Lanes32)
		for j := 0; j < in; j++ {
			copy(xh[j*Lanes32:(j+1)*Lanes32], x32[j*WideLanes32+h*Lanes32:])
		}
		ref32[h] = make([]float32, rows*Lanes32)
		DenseTile32(ref32[h], b32, w32, stride, rows, xh, in)
	}
	check("float32", WideLanes32, func(i int) float64 { return float64(y32[i]) }, func(i int) float64 {
		r, k := i/WideLanes32, i%WideLanes32
		return float64(ref32[k/Lanes32][r*Lanes32+k%Lanes32])
	}, len(y32))
}

// TestDenseTileASMAgainstGeneric pins the exactness contract of the
// kernels: in float64 assembly and generic Go agree bit for bit, in
// float32 within the fused-rounding bound, and the 512-bit float32 tile
// equals the 256-bit one on the same units bit for bit — on widths that
// are not multiples of anything, on every partial tile, with padded
// strides, and with signed zeros, subnormals, infinities and NaN in the
// inputs. The wide tiles run with the 512-bit assembly forced off, and
// forced on where the machine has it.
func TestDenseTileASMAgainstGeneric(t *testing.T) {
	if !denseASM {
		t.Skip("no dense-layer assembly on this machine")
	}
	defer func(asm, zmm bool) { denseASM, denseZMM = asm, zmm }(denseASM, denseZMM)
	zmmPaths := []bool{false}
	if denseZMM {
		zmmPaths = append(zmmPaths, true)
	} else {
		t.Log("no 512-bit assembly on this machine: wide tiles checked on the generic loop only")
	}
	rng := rand.New(rand.NewSource(11))
	for _, in := range []int{1, 2, 3, 5, 8, 13, 32, 64, 97, 192, 300} {
		for rows := 1; rows <= TileRows; rows++ {
			for _, stride := range []int{in, (in + 7) &^ 7, in + 3} {
				for _, rate := range []int{0, 16, 3} {
					tileCase(t, Lanes64, DenseTile64, rng, in, stride, rows, rate)
					tileCase(t, Lanes32, DenseTile32, rng, in, stride, rows, rate)
					for _, zmm := range zmmPaths {
						wideCase(t, rng, zmm, in, stride, rows, rate)
					}
				}
			}
		}
	}
}

// TestDenseTilePaths pins the tile choice on raw CPUID and XGETBV words:
// the 512-bit tiles need AVX512F and an operating system that saves the
// opmask and ZMM state, and anything less falls back to the 256-bit tiles
// or the generic loop, never to a tile the machine cannot run.
func TestDenseTilePaths(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f     = 1 << 5, 1 << 16
		ecx               = fma | osxsave | avx
	)
	full := cpuWords{maxLeaf: 0x20, ecx1: ecx, ebx7: avx2 | avx512f, xcr0: 0xE7}
	for _, tc := range []struct {
		name      string
		edit      func(w *cpuWords)
		avx2, zmm bool
	}{
		{"AVX-512 with ZMM state saved", func(*cpuWords) {}, true, true},
		{"exactly the needed XCR0 bits", func(w *cpuWords) { w.xcr0 = 0xE6 }, true, true},
		{"AVX2 only", func(w *cpuWords) { w.ebx7 = avx2; w.xcr0 = 0x7 }, true, false},
		{"AVX512F, OS saves no opmask", func(w *cpuWords) { w.xcr0 &^= 1 << 5 }, true, false},
		{"AVX512F, OS saves no ZMM_Hi256", func(w *cpuWords) { w.xcr0 &^= 1 << 6 }, true, false},
		{"AVX512F, OS saves no Hi16_ZMM", func(w *cpuWords) { w.xcr0 &^= 1 << 7 }, true, false},
		{"AVX512F, OS saves only XMM and YMM", func(w *cpuWords) { w.xcr0 = 0x7 }, true, false},
		{"AVX512F without OSXSAVE", func(w *cpuWords) { w.ecx1 &^= osxsave }, false, false},
		{"AVX512F without OSXSAVE, stale XCR0", func(w *cpuWords) { w.ecx1 &^= osxsave; w.xcr0 = 0 }, false, false},
		{"OS saves no YMM", func(w *cpuWords) { w.xcr0 = 0x3 | 0xE0 }, false, false},
		{"no FMA", func(w *cpuWords) { w.ecx1 &^= fma }, false, false},
		{"no AVX", func(w *cpuWords) { w.ecx1 &^= avx }, false, false},
		{"AVX512F without AVX2", func(w *cpuWords) { w.ebx7 = avx512f }, false, false},
		{"no leaf 7", func(w *cpuWords) { w.maxLeaf = 6 }, false, false},
		{"nothing", func(w *cpuWords) { *w = cpuWords{} }, false, false},
	} {
		w := full
		tc.edit(&w)
		if avx2, zmm := tilePaths(w); avx2 != tc.avx2 || zmm != tc.zmm {
			t.Errorf("%s (%+v): avx2=%v zmm=%v, want avx2=%v zmm=%v", tc.name, w, avx2, zmm, tc.avx2, tc.zmm)
		}
	}
	if denseZMM && !denseASM {
		t.Fatal("this machine chose the 512-bit tiles without the 256-bit ones")
	}
	lanes64, _ := ScoreTile64()
	lanes32, _ := ScoreTile32()
	if want := map[bool][2]int{false: {Lanes64, Lanes32}, true: {WideLanes64, WideLanes32}}[denseZMM]; [2]int{lanes64, lanes32} != want {
		t.Fatalf("scoring lanes %d/%d, want %v with zmm=%v", lanes64, lanes32, want, denseZMM)
	}
}

// TestDenseTileLayout checks the indexing contract on exact small
// integers: row stride, lane interleave, bias first, partial tiles. Each
// subtest is named by its tile's lane count.
func TestDenseTileLayout(t *testing.T) {
	t.Run("4", func(t *testing.T) { layoutCase(t, Lanes64, DenseTile64) })
	t.Run("8", func(t *testing.T) { layoutCase(t, Lanes32, DenseTile32) })
	t.Run("wide8", func(t *testing.T) { layoutCase(t, WideLanes64, WideTile64) })
	t.Run("wide16", func(t *testing.T) { layoutCase(t, WideLanes32, WideTile32) })
}

func layoutCase[T float32 | float64](t *testing.T, lanes int, tile Tile[T]) {
	const in, stride, rows = 3, 5, 3
	w := []T{
		1, 2, 3, 99, 99,
		-1, 0, 1, 99, 99,
		2, 2, 2,
	}
	b := []T{10, 20, 30}
	x := make([]T, in*lanes)
	for j := 0; j < in; j++ {
		for k := 0; k < lanes; k++ {
			x[j*lanes+k] = T(j*10 + k)
		}
	}
	y := make([]T, rows*lanes)
	tile(y, b, w, stride, rows, x, in)
	for r := 0; r < rows; r++ {
		for k := 0; k < lanes; k++ {
			want := b[r]
			for j := 0; j < in; j++ {
				want += w[r*stride+j] * x[j*lanes+k]
			}
			if g := y[r*lanes+k]; g != want {
				t.Fatalf("row %d lane %d: %v, want %v", r, k, g, want)
			}
		}
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

// benchPaths runs bench once per path of one tile width this machine
// has: the generic loop, then the assembly (AVX2 for the 256-bit tiles,
// AVX-512 for the wide ones), forced through the flags.
func benchPaths(b *testing.B, wide bool, bench func(b *testing.B)) {
	defer func(asm, zmm bool) { denseASM, denseZMM = asm, zmm }(denseASM, denseZMM)
	asm, name := denseASM, "avx2"
	if wide {
		asm, name = denseZMM, "avx512"
	}
	b.Run("generic", func(b *testing.B) {
		denseASM, denseZMM = false, false
		bench(b)
	})
	if asm {
		b.Run(name, func(b *testing.B) {
			denseASM, denseZMM = true, wide
			bench(b)
		})
	}
}

// BenchmarkDenseTile64 and BenchmarkDenseTile32 time the 256-bit tiles,
// BenchmarkDenseTileWide64 and BenchmarkDenseTileWide32 the 512-bit ones,
// one 8×192 tile per call on each path.
func BenchmarkDenseTile64(b *testing.B) {
	benchPaths(b, false, func(b *testing.B) { benchTile(b, Lanes64, DenseTile64) })
}

func BenchmarkDenseTile32(b *testing.B) {
	benchPaths(b, false, func(b *testing.B) { benchTile(b, Lanes32, DenseTile32) })
}

func BenchmarkDenseTileWide64(b *testing.B) {
	benchPaths(b, true, func(b *testing.B) { benchTile(b, WideLanes64, WideTile64) })
}

func BenchmarkDenseTileWide32(b *testing.B) {
	benchPaths(b, true, func(b *testing.B) { benchTile(b, WideLanes32, WideTile32) })
}
