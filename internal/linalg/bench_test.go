package linalg

import (
	"fmt"
	"testing"
)

func randomSquare(n int, seed uint64) *Matrix {
	s := seed
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64(s*0x2545f4914f6cdd1d%1000)/1000 - 0.5
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		sum := 0.0
		for j := range row {
			row[j] = next()
			sum += row[j]
			if sum < 0 {
				sum = -sum
			}
		}
		row[i] = sum + 1 // diagonally dominant: always factorisable
	}
	return a
}

// BenchmarkLinalg measures the packed register-blocked kernels (the
// *-into benchmarks), the same kernels into freshly allocated storage
// (*-alloc), and the
// scalar reference kernels they replaced (*-ref) — so the micro-kernel
// speedup is visible in one table. scripts/bench_reach.sh records
// these numbers alongside BenchmarkReach in BENCH_reach.json.
func BenchmarkLinalg(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		a := randomSquare(n, 7)
		bm := randomSquare(n, 13)
		b.Run(fmt.Sprintf("factor-alloc/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewLU(n).FactorInto(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("factor-into/n=%d", n), func(b *testing.B) {
			f := NewLU(n)
			if err := f.FactorInto(a); err != nil { // warm the packing buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.FactorInto(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("factor-ref/n=%d", n), func(b *testing.B) {
			f := NewLU(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.FactorIntoRef(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("inverse-into/n=%d", n), func(b *testing.B) {
			f := NewLU(n)
			if err := f.FactorInto(a); err != nil {
				b.Fatal(err)
			}
			dst := NewMatrix(n, n)
			f.InverseInto(dst) // warm the packing buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.InverseInto(dst)
			}
		})
		b.Run(fmt.Sprintf("mul-alloc/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulInto(NewMatrix(n, n), a, bm)
			}
		})
		b.Run(fmt.Sprintf("mul-into/n=%d", n), func(b *testing.B) {
			dst := NewMatrix(n, n)
			MulInto(dst, a, bm) // warm the packing buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulInto(dst, a, bm)
			}
		})
		b.Run(fmt.Sprintf("mul-ref/n=%d", n), func(b *testing.B) {
			dst := NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulIntoRef(dst, a, bm)
			}
		})
		b.Run(fmt.Sprintf("solve/n=%d", n), func(b *testing.B) {
			f := NewLU(n)
			if err := f.FactorInto(a); err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, n)
			x := make([]float64, n)
			for i := range rhs {
				rhs[i] = float64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Solve(rhs, x)
			}
		})
	}
}
