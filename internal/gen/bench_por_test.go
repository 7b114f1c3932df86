package gen

import (
	"context"
	"testing"

	"eventorder/internal/core"
)

func benchMatrix(b *testing.B, disable bool) {
	x, err := Barrier(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.New(x, core.Options{DisablePOR: disable})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Matrix(context.Background(), nil, core.MatrixOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixPOROn(b *testing.B)  { benchMatrix(b, false) }
func BenchmarkMatrixPOROff(b *testing.B) { benchMatrix(b, true) }
