//go:build amd64

package vec

// denseASM gates the 256-bit tile kernels and denseZMM the 512-bit ones.
// Both are decided once at init by tilePaths from this CPU's CPUID and
// XGETBV words.
var denseASM, denseZMM = tilePaths(readCPU())

// readCPU reads the words tilePaths decides on. XGETBV faults unless
// OSXSAVE is set, so XCR0 reads as 0 without it.
func readCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	if w.maxLeaf < 7 {
		return w
	}
	_, _, w.ecx1, _ = cpuid(1, 0)
	_, w.ebx7, _, _ = cpuid(7, 0)
	if w.ecx1&(1<<27) != 0 { // OSXSAVE
		w.xcr0, _ = xgetbv()
	}
	return w
}

//go:noescape
func denseTile64AVX2(y, b, w *float64, stride, rows int, x *float64, in int)

//go:noescape
func denseTile32AVX2(y, b, w *float32, stride, rows int, x *float32, in int)

//go:noescape
func denseTile64AVX512(y, b, w *float64, stride, rows int, x *float64, in int)

//go:noescape
func denseTile32AVX512(y, b, w *float32, stride, rows int, x *float32, in int)

func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
