package linalg

import (
	"fmt"
	"math"
	"testing"
)

// awkwardSizes stresses every edge of the blocking machinery: the
// trivial 1×1, sizes below/at/above the micro-kernel shape (4×8), the
// LU panel width (32), the GEMM cache blocks (128/256/512), primes,
// and one-past-a-power-of-two (257 crosses the KC panel boundary).
var awkwardSizes = []int{1, 2, 3, 5, 7, 8, 9, 13, 31, 32, 33, 64, 97, 127, 128, 129, 257}

func randFilled(rows, cols int, seed uint64) *Matrix {
	s := seed
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64(s*0x2545f4914f6cdd1d%1000)/1000 - 0.5
	}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = next()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestPackedMulMatchesReference pits the packed micro-kernel GEMM
// against the scalar reference over rectangular shapes that are not
// multiples of the micro-kernel or cache-block sizes.
func TestPackedMulMatchesReference(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 257, 1}, {3, 5, 7}, {4, 8, 8}, {5, 9, 17},
		{31, 33, 29}, {63, 64, 65}, {127, 100, 129}, {256, 256, 256},
		{257, 31, 130}, {130, 257, 61}, {300, 64, 300},
	}
	for _, sh := range shapes {
		a := randFilled(sh.m, sh.k, uint64(sh.m*1000+sh.k))
		b := randFilled(sh.k, sh.n, uint64(sh.k*1000+sh.n))
		want := MulIntoRef(NewMatrix(1, 1), a, b)
		got := MulInto(NewMatrix(1, 1), a, b)
		if got.Rows != sh.m || got.Cols != sh.n {
			t.Fatalf("%v: shape %dx%d", sh, got.Rows, got.Cols)
		}
		if d := maxAbsDiff(want.Data, got.Data); d > 1e-9 {
			t.Errorf("%dx%dx%d: packed vs reference differs by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

// TestBlockedFactorMatchesReference checks the blocked LU against the
// unblocked scalar elimination on every awkward size: same pivot
// sequence, factors and solves that agree to 1e-9.
func TestBlockedFactorMatchesReference(t *testing.T) {
	for _, n := range awkwardSizes {
		a := randomDiagDominant(n, randFilled(1, 2*n+3, uint64(n)).Data)
		ref := NewLU(n)
		if err := ref.FactorIntoRef(a); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		blk := NewLU(n)
		if err := blk.FactorInto(a); err != nil {
			t.Fatalf("n=%d: blocked: %v", n, err)
		}
		for i := range ref.piv {
			if ref.piv[i] != blk.piv[i] {
				t.Fatalf("n=%d: pivot sequence diverged at %d", n, i)
			}
		}
		if d := maxAbsDiff(ref.lu.Data, blk.lu.Data); d > 1e-9 {
			t.Errorf("n=%d: factors differ by %g", n, d)
		}
		b := randFilled(1, n, uint64(n)+7).Data
		xr, xb := make([]float64, n), make([]float64, n)
		ref.Solve(b, xr)
		blk.Solve(b, xb)
		if d := maxAbsDiff(xr, xb); d > 1e-9 {
			t.Errorf("n=%d: solve differs by %g", n, d)
		}
	}
}

// TestBlockedInverseMatchesReference checks the blocked multi-RHS
// substitution against the column-at-a-time reference, and that both
// actually invert: A·A⁻¹ ≈ I.
func TestBlockedInverseMatchesReference(t *testing.T) {
	for _, n := range awkwardSizes {
		a := randomDiagDominant(n, randFilled(1, 2*n+5, uint64(n)*3+1).Data)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref := f.InverseIntoRef(NewMatrix(1, 1))
		blk := f.InverseInto(NewMatrix(1, 1))
		if d := maxAbsDiff(ref.Data, blk.Data); d > 1e-9 {
			t.Errorf("n=%d: blocked inverse differs from reference by %g", n, d)
		}
		prod := Mul(a, blk)
		worst := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(prod.At(i, j) - want); d > worst {
					worst = d
				}
			}
		}
		if worst > 1e-8 {
			t.Errorf("n=%d: A·A⁻¹ off identity by %g", n, worst)
		}
	}
}

// TestSingularDetectedBlocked: exactly dependent rows must surface
// ErrSingular from both the blocked and reference paths, wherever the
// dependency sits relative to the panel boundaries.
func TestSingularDetectedBlocked(t *testing.T) {
	for _, n := range []int{2, 33, 67, 129} {
		for _, dup := range []int{0, n / 2, n - 1} {
			a := randomDiagDominant(n, randFilled(1, n+3, uint64(n*31+dup)).Data)
			src := (dup + 1) % n
			copy(a.Row(dup), a.Row(src)) // two identical rows
			blk := NewLU(n)
			if err := blk.FactorInto(a); err == nil {
				t.Errorf("n=%d dup=%d: blocked path missed singularity", n, dup)
			}
			ref := NewLU(n)
			if err := ref.FactorIntoRef(a); err == nil {
				t.Errorf("n=%d dup=%d: reference path missed singularity", n, dup)
			}
		}
	}
}

// TestAxpyMatchesScalar pins the FMA row-update kernel the blocked LU
// and substitutions use against a plain loop, across its 16-wide main
// loop and scalar tail.
func TestAxpyMatchesScalar(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly kernels on this CPU")
	}
	for _, n := range []int{1, 15, 16, 17, 64, 100, 257} {
		x := randFilled(1, n, uint64(n)).Data
		y := randFilled(1, n, uint64(n)+1).Data
		yc := append([]float64(nil), y...)
		axpyAsm(0.75, &x[0], &yc[0], n)
		for i := range yc {
			if d := math.Abs(yc[i] - (y[i] + 0.75*x[i])); d > 1e-12 {
				t.Errorf("n=%d: axpy off by %g at %d", n, d, i)
			}
		}
	}
}

// TestPackedPathsZeroAlloc extends the allocation pins to the packed
// kernels: once buffers are warm, the blocked GEMM/LU/inverse paths
// allocate nothing — whether the packing buffers come from the shared
// pool or an LU's own buffer.
func TestPackedPathsZeroAlloc(t *testing.T) {
	const n = 64 // large enough that the packed path (not the scalar fallback) runs
	a := randomDiagDominant(n, randFilled(1, n, 3).Data)
	b := randFilled(n, n, 5)
	dst := NewMatrix(n, n)
	f := NewLU(n)
	inv := NewMatrix(n, n)

	cases := map[string]func(){
		"FactorInto": func() {
			if err := f.FactorInto(a); err != nil {
				t.Fatal(err)
			}
		},
		"InverseInto": func() { f.InverseInto(inv) },
	}
	if !raceEnabled {
		// sync.Pool drops Puts at random under -race; the pool-backed
		// entry point is only pinnable in a normal build.
		cases["MulInto/pool"] = func() { MulInto(dst, a, b) }
	}
	for name, fn := range cases {
		fn() // warm buffers
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}

// TestMulIntoReshapesWithoutClearGarbage: MulInto skips Reshape's
// zeroing; a dst recycled from a larger, dirty matrix must still come
// out exactly right (every element is written).
func TestMulIntoReshapesWithoutClearGarbage(t *testing.T) {
	dirty := NewMatrix(90, 90)
	for i := range dirty.Data {
		dirty.Data[i] = math.NaN()
	}
	a := randFilled(65, 33, 21)
	b := randFilled(33, 41, 22)
	got := MulInto(dirty, a, b)
	want := MulIntoRef(NewMatrix(1, 1), a, b)
	if d := maxAbsDiff(want.Data, got.Data); d > 1e-9 || math.IsNaN(d) {
		t.Fatalf("recycled dst differs by %v", d)
	}
}

func BenchmarkGemmShapes(b *testing.B) {
	// Edge-heavy shape: exercises the bounce-tile path.
	a := randFilled(257, 129, 1)
	bb := randFilled(129, 255, 2)
	dst := NewMatrix(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, bb)
	}
	_ = fmt.Sprint(dst.Rows)
}
