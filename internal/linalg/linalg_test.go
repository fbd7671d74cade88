package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// factor factorises a into fresh storage.
func factor(a *Matrix) (*LU, error) {
	f := NewLU(a.Rows)
	return f, f.FactorInto(a)
}

// mul returns A·B in a fresh matrix.
func mul(a, b *Matrix) *Matrix { return MulInto(NewMatrix(0, 0), a, b) }

// identity returns the n×n identity.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve([]float64{5, 10}, x)
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestFactorRequiresSquare(t *testing.T) {
	if _, err := factor(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestSingularDetected(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := factor(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestIdentityAndMul(t *testing.T) {
	id := identity(3)
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(i*3+j+1))
		}
	}
	p := mul(a, id)
	for i := range a.Data {
		if p.Data[i] != a.Data[i] {
			t.Fatalf("A·I != A at %d", i)
		}
	}
	p = mul(id, a)
	for i := range a.Data {
		if p.Data[i] != a.Data[i] {
			t.Fatalf("I·A != A at %d", i)
		}
	}
}

// randomDiagDominant builds a well-conditioned matrix from fuzz input.
func randomDiagDominant(n int, vals []float64) *Matrix {
	a := NewMatrix(n, n)
	k := 0
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := math.Mod(math.Abs(vals[k%len(vals)]), 1.0)
			k++
			a.Set(i, j, v)
			sum += v
		}
		a.Set(i, i, sum+1)
	}
	return a
}

func TestInverseProperty(t *testing.T) {
	f := func(raw []float64, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		n := int(nRaw%6) + 2
		a := randomDiagDominant(n, raw)
		f, err := factor(a)
		if err != nil {
			return false
		}
		inv := f.InverseInto(NewMatrix(0, 0))
		prod := mul(a, inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(prod.At(i, j), want, 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveMatchesMulVecProperty(t *testing.T) {
	f := func(raw []float64, nRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		n := int(nRaw%5) + 2
		a := randomDiagDominant(n, raw)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Mod(raw[i%len(raw)], 10)
		}
		b := make([]float64, n)
		for i := range b {
			for j, v := range a.Row(i) {
				b[i] += v * x[j]
			}
		}
		fac, err := factor(a)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		fac.Solve(b, got)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromIndependence(t *testing.T) {
	a := identity(2)
	c := NewMatrix(0, 0)
	c.CopyFrom(a)
	if c.Rows != 2 || c.Cols != 2 || c.At(0, 0) != 1 || c.At(0, 1) != 0 {
		t.Fatalf("CopyFrom produced %+v", c)
	}
	c.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("CopyFrom shares storage")
	}
}

// TestFactorIntoMatchesFactor: factorising into an undersized LU grows
// it and matches a factorisation into fresh storage.
func TestFactorIntoMatchesFactor(t *testing.T) {
	a := randomDiagDominant(6, []float64{0.3, 0.9, 0.1, 0.7, 0.52, 0.24, 0.81})
	want, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	f := NewLU(2) // undersized on purpose: FactorInto must grow
	if err := f.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	for i := range want.lu.Data {
		if want.lu.Data[i] != f.lu.Data[i] {
			t.Fatalf("factor mismatch at %d: %v vs %v", i, want.lu.Data[i], f.lu.Data[i])
		}
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x1, x2 := make([]float64, 6), make([]float64, 6)
	want.Solve(b, x1)
	f.Solve(b, x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// TestInverseIntoMatchesInverse: inverting into an undersized matrix
// reshapes it and matches an inverse into a fresh n×n matrix.
func TestInverseIntoMatchesInverse(t *testing.T) {
	a := randomDiagDominant(5, []float64{0.6, 0.2, 0.9, 0.33, 0.47})
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	want := f.InverseInto(NewMatrix(5, 5))
	dst := NewMatrix(1, 1)
	f.InverseInto(dst)
	if dst.Rows != 5 || dst.Cols != 5 {
		t.Fatalf("shape %dx%d", dst.Rows, dst.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != dst.Data[i] {
			t.Fatalf("InverseInto differs at %d", i)
		}
	}
}

// TestMulIntoMatchesMul: multiplying into an undersized matrix reshapes
// it and matches a product into a fresh matrix of the right shape, on
// rectangular and larger-than-one-block shapes.
func TestMulIntoMatchesMul(t *testing.T) {
	shapes := []struct{ m, k, n int }{{3, 4, 2}, {70, 65, 80}, {128, 128, 128}}
	for _, sh := range shapes {
		a, b := NewMatrix(sh.m, sh.k), NewMatrix(sh.k, sh.n)
		s := uint64(99)
		next := func() float64 {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			return float64(s*0x2545f4914f6cdd1d%1000) / 1000
		}
		for i := range a.Data {
			a.Data[i] = next()
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		want := MulInto(NewMatrix(sh.m, sh.n), a, b)
		dst := NewMatrix(1, 1)
		MulInto(dst, a, b)
		if dst.Rows != sh.m || dst.Cols != sh.n {
			t.Fatalf("shape %dx%d", dst.Rows, dst.Cols)
		}
		for i := range want.Data {
			if want.Data[i] != dst.Data[i] {
				t.Fatalf("%dx%dx%d: MulInto differs at %d", sh.m, sh.k, sh.n, i)
			}
		}
	}
}

// TestZeroAllocKernels pins the allocation contract of the in-place
// kernels: at steady state they allocate nothing.
func TestZeroAllocKernels(t *testing.T) {
	n := 32
	a := randomDiagDominant(n, []float64{0.4, 0.8, 0.15, 0.67, 0.29, 0.93})
	f := NewLU(n)
	inv := NewMatrix(n, n)
	dst := NewMatrix(n, n)
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}

	cases := map[string]func(){
		"FactorInto": func() {
			if err := f.FactorInto(a); err != nil {
				t.Fatal(err)
			}
		},
		"Solve":       func() { f.Solve(b, x) },
		"InverseInto": func() { f.InverseInto(inv) },
		"MulInto":     func() { MulInto(dst, a, inv) },
	}
	for name, fn := range cases {
		if name == "MulInto" && raceEnabled {
			// MulInto's packing buffers come from a sync.Pool, and the
			// race detector deliberately drops pool Puts at random (see
			// raceEnabled), so the zero-alloc pin only holds without it.
			continue
		}
		fn() // warm up sizing
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
}
