package vec

import "testing"

func TestWidenAndDequant8(t *testing.T) {
	src := []float32{1.5, -2.25, 0, 3}
	dst := make([]float64, len(src))
	Widen(dst, src)
	for i := range src {
		if dst[i] != float64(src[i]) {
			t.Fatalf("Widen[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
	q := []int8{127, -128, 0, 64}
	scale := 0.03125
	Dequant8(dst, q, scale)
	for i := range q {
		if want := scale * float64(q[i]); dst[i] != want {
			t.Fatalf("Dequant8[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestWidenPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Widen(make([]float64, 3), make([]float32, 4))
}

func TestDequant8PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dequant8(make([]float64, 3), make([]int8, 4), 1)
}
