// Scalar reference kernels. These are the pre-blocking implementations
// of the O(n³) operations, kept for two jobs: they are the numerical
// parity oracle the property tests pit the packed/blocked kernels
// against, and they are the fallback path on architectures without the
// assembly micro-kernel (and for matrices too small to amortise
// packing). They allocate nothing beyond their destination arguments.
package linalg

import (
	"fmt"
	"math"
)

// mulBlock is the k-panel height of the reference multiply: mulBlock
// rows of B (≤ 2KB each at n ≤ 256) stay L1/L2-resident while a C row
// accumulates across the panel.
const mulBlock = 64

// MulIntoRef computes dst = a·b with the scalar axpy kernel. dst must
// not alias a or b. It is the parity reference for MulInto and the
// fallback when the packed micro-kernel is unavailable or not worth
// its packing overhead.
func MulIntoRef(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulIntoRef dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Cols)
	for kk := 0; kk < a.Cols; kk += mulBlock {
		kend := kk + mulBlock
		if kend > a.Cols {
			kend = a.Cols
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			crow := dst.Row(i)
			for k := kk; k < kend; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	return dst
}

// FactorIntoRef factorises a into f's storage with the unblocked
// scalar elimination. Same contract as FactorInto; it is the parity
// reference for the blocked path.
func (f *LU) FactorIntoRef(a *Matrix) error {
	n, err := f.factorPrologue(a)
	if err != nil {
		return err
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Pivot selection.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				p, max = i, v
			}
		}
		if max < pivotTol {
			return fmt.Errorf("%w: pivot %d ~ %g", ErrSingular, k, max)
		}
		if p != k {
			f.swapRows(k, p)
		}
		// Elimination.
		pivot := lu.At(k, k)
		rowk := lu.Row(k)
		for i := k + 1; i < n; i++ {
			rowi := lu.Row(i)
			fac := rowi[k] / pivot
			rowi[k] = fac
			if fac == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowi[j] -= fac * rowk[j]
			}
		}
	}
	return nil
}

// InverseIntoRef computes A⁻¹ column by column through Solve — the
// parity reference for the blocked InverseInto.
func (f *LU) InverseIntoRef(dst *Matrix) *Matrix {
	n := f.lu.Rows
	dst.Reshape(n, n)
	e := f.aux
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		f.Solve(e, e)
		for i := 0; i < n; i++ {
			dst.Set(i, j, e[i])
		}
	}
	return dst
}

// gemmBlockRef applies C[ci:ci+m, cj:cj+n] op= A[ai:ai+m, ak:ak+kk] ·
// B[bk:bk+kk, bj:bj+n] with scalar loops — the mode-aware view GEMM
// used when the packed path is unavailable. op is gemmSet/gemmAdd/
// gemmSub.
func gemmBlockRef(c *Matrix, ci, cj int, a *Matrix, ai, ak int, b *Matrix, bk, bj int, m, kk, n, mode int) {
	if mode == gemmSet {
		for i := 0; i < m; i++ {
			crow := c.Row(ci + i)[cj : cj+n]
			for j := range crow {
				crow[j] = 0
			}
		}
	}
	sign := 1.0
	if mode == gemmSub {
		sign = -1
	}
	for i := 0; i < m; i++ {
		arow := a.Row(ai + i)[ak : ak+kk]
		crow := c.Row(ci + i)[cj : cj+n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			av *= sign
			brow := b.Row(bk + k)[bj : bj+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}
