//go:build amd64

package vec

// denseASM gates the AVX2 tile kernels (the float32 one also needs FMA).
// It is decided once at init from CPUID: the instruction-set bits (FMA,
// AVX, AVX2) plus OSXSAVE and the XCR0 XMM|YMM bits, which confirm the
// operating system actually saves the 256-bit register state across
// context switches.
var denseASM = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&fma == 0 || c1&avx == 0 || c1&osxsave == 0 {
		return false
	}
	if xlo, _ := xgetbv(); xlo&0x6 != 0x6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

//go:noescape
func denseTile64AVX2(y, b, w *float64, stride, rows int, x *float64, in int)

//go:noescape
func denseTile32AVX2(y, b, w *float32, stride, rows int, x *float32, in int)

func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
