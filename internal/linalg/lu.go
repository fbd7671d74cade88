// Blocked LU factorisation and the solves built on it. FactorInto is
// right-looking with a fixed panel width: the panel is factorised with
// scalar/axpy column operations (partial pivoting, full-row swaps), the
// panel's row block of U is produced by a triangular solve (TRSM), and
// the trailing submatrix is updated through the packed GEMM kernel —
// which is where ~all of the O(n³) work lands. InverseInto is a blocked
// forward/back substitution over all columns of the identity at once,
// again with GEMM carrying the bulk of the flops.
package linalg

import (
	"fmt"
	"math"
)

// luPanel is the blocked factorisation's panel width: narrow enough
// that the scalar panel work stays a small fraction of n³, deep enough
// that the trailing GEMM's micro-kernel loop amortises its tile
// stores.
const luPanel = 32

// pivotTol is the magnitude below which a pivot is treated as
// (effectively) singular.
const pivotTol = 1e-14

// LU is a compact LU factorisation with partial pivoting: PA = LU. An
// LU's storage is reused across FactorInto calls, and Solve and
// InverseInto run out of its internal scratch, so a long-lived LU
// performs no steady-state allocation. An LU is not safe for
// concurrent use.
type LU struct {
	lu   *Matrix
	piv  []int
	work []float64 // Solve scratch
	aux  []float64 // InverseIntoRef column scratch
	buf  *gemmBuf  // packing workspace for the blocked kernels
}

// NewLU returns an LU with storage preallocated for n×n factorisations.
func NewLU(n int) *LU {
	return &LU{
		lu:   NewMatrix(n, n),
		piv:  make([]int, n),
		work: make([]float64, n),
		aux:  make([]float64, n),
	}
}

// factorPrologue copies a into f's (grown) storage and resets the
// pivot bookkeeping.
func (f *LU) factorPrologue(a *Matrix) (int, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("linalg: FactorInto needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.lu == nil {
		f.lu = &Matrix{}
	}
	f.lu.CopyFrom(a)
	if cap(f.piv) < n {
		f.piv = make([]int, n)
		f.work = make([]float64, n)
		f.aux = make([]float64, n)
	}
	f.piv = f.piv[:n]
	f.work = f.work[:n]
	f.aux = f.aux[:n]
	for i := range f.piv {
		f.piv[i] = i
	}
	return n, nil
}

// swapRows exchanges full rows k and p of the factorisation and the
// pivot record.
func (f *LU) swapRows(k, p int) {
	rk, rp := f.lu.Row(k), f.lu.Row(p)
	for j := range rk {
		rk[j], rp[j] = rp[j], rk[j]
	}
	f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
}

// FactorInto factorises a into f's storage, growing it if needed but
// never allocating once f has seen a matrix of this size. The input is
// not modified. On error f's previous factorisation is destroyed.
func (f *LU) FactorInto(a *Matrix) error {
	if !useAsm {
		return f.FactorIntoRef(a)
	}
	n, err := f.factorPrologue(a)
	if err != nil {
		return err
	}
	if f.buf == nil {
		f.buf = new(gemmBuf)
	}
	for k := 0; k < n; k += luPanel {
		kb := min(luPanel, n-k)
		if err := f.factorPanel(k, kb); err != nil {
			return err
		}
		rest := n - k - kb
		if rest == 0 {
			continue
		}
		f.trsmPanel(k, kb, rest)
		// Trailing update A22 -= A21·U12 through the packed kernel.
		gemmBlock(f.lu, k+kb, k+kb, f.lu, k+kb, k, f.lu, k, k+kb,
			rest, kb, rest, gemmSub, f.buf)
	}
	return nil
}

// factorPanel factorises columns [k, k+kb) over rows [k, n) with
// partial pivoting. Row swaps are applied to the full rows, so the
// pivot bookkeeping matches the unblocked reference exactly; the
// elimination updates only the panel's own columns — the columns to
// the right are handled by trsmPanel and the trailing GEMM.
func (f *LU) factorPanel(k, kb int) error {
	lu := f.lu
	n := lu.Rows
	for j := k; j < k+kb; j++ {
		p, max := j, math.Abs(lu.At(j, j))
		for i := j + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, j)); v > max {
				p, max = i, v
			}
		}
		if max < pivotTol {
			return fmt.Errorf("%w: pivot %d ~ %g", ErrSingular, j, max)
		}
		if p != j {
			f.swapRows(j, p)
		}
		pivot := lu.At(j, j)
		w := k + kb - j - 1 // update width within the panel
		rowj := lu.Row(j)[j+1 : j+1+w]
		for i := j + 1; i < n; i++ {
			rowi := lu.Row(i)
			fac := rowi[j] / pivot
			rowi[j] = fac
			if fac == 0 || w == 0 {
				continue
			}
			dst := rowi[j+1 : j+1+w]
			if useAsm && w >= 8 {
				axpyAsm(-fac, &rowj[0], &dst[0], w)
				continue
			}
			for t, v := range rowj {
				dst[t] -= fac * v
			}
		}
	}
	return nil
}

// trsmPanel computes U12 = L11⁻¹·A12 in place: for each panel row the
// contributions of the preceding panel rows are subtracted (L11 has
// unit diagonal, so no divisions).
func (f *LU) trsmPanel(k, kb, rest int) {
	lu := f.lu
	for j := k + 1; j < k+kb; j++ {
		ljrow := lu.Row(j)
		dst := ljrow[k+kb : k+kb+rest]
		for i := k; i < j; i++ {
			fac := ljrow[i]
			if fac == 0 {
				continue
			}
			src := lu.Row(i)[k+kb : k+kb+rest]
			if useAsm && rest >= 8 {
				axpyAsm(-fac, &src[0], &dst[0], rest)
				continue
			}
			for t, v := range src {
				dst[t] -= fac * v
			}
		}
	}
}

// Solve solves A·x = b into x (x and b may alias). It runs out of the
// LU's internal scratch and does not allocate.
func (f *LU) Solve(b, x []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: Solve dimension mismatch")
	}
	// Apply permutation.
	tmp := f.work
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := tmp[i]
		for j := 0; j < i; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := tmp[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s / row[i]
	}
	copy(x, tmp)
}

// InverseInto computes A⁻¹ into dst (reshaped as needed) without
// allocating beyond dst's backing array and f's reusable workspace.
func (f *LU) InverseInto(dst *Matrix) *Matrix {
	if !useAsm {
		return f.InverseIntoRef(dst)
	}
	n := f.lu.Rows
	dst.Reshape(n, n)
	// dst starts as P·I: row i of the permuted identity.
	for i := 0; i < n; i++ {
		dst.Set(i, f.piv[i], 1)
	}
	f.solveBlocked(dst)
	return dst
}

// solveBlocked runs L·U·X = X' in place over all columns of x:
// a blocked forward substitution with L (unit diagonal) followed by a
// blocked back substitution with U. Within a band the substitution is
// row axpy work; across bands it is one GEMM per band, which is where
// the O(n³) lands.
func (f *LU) solveBlocked(x *Matrix) {
	lu := f.lu
	n := lu.Rows
	w := x.Cols
	if f.buf == nil {
		f.buf = new(gemmBuf)
	}
	// Forward: X[band] -= L[band, 0:k]·X[0:k], then in-band solve.
	for k := 0; k < n; k += luPanel {
		ke := min(k+luPanel, n)
		if k > 0 {
			gemmBlock(x, k, 0, lu, k, 0, x, 0, 0, ke-k, k, w, gemmSub, f.buf)
		}
		for i := k + 1; i < ke; i++ {
			lrow := lu.Row(i)
			dst := x.Row(i)
			for j := k; j < i; j++ {
				fac := lrow[j]
				if fac == 0 {
					continue
				}
				src := x.Row(j)
				if useAsm && w >= 8 {
					axpyAsm(-fac, &src[0], &dst[0], w)
					continue
				}
				for t, v := range src {
					dst[t] -= fac * v
				}
			}
		}
	}
	// Backward: X[band] -= U[band, ke:n]·X[ke:n], then in-band solve
	// with the diagonal divisions.
	start := (n - 1) / luPanel * luPanel
	for k := start; k >= 0; k -= luPanel {
		ke := min(k+luPanel, n)
		if ke < n {
			gemmBlock(x, k, 0, lu, k, ke, x, ke, 0, ke-k, n-ke, w, gemmSub, f.buf)
		}
		for i := ke - 1; i >= k; i-- {
			urow := lu.Row(i)
			dst := x.Row(i)
			for j := i + 1; j < ke; j++ {
				fac := urow[j]
				if fac == 0 {
					continue
				}
				src := x.Row(j)
				if useAsm && w >= 8 {
					axpyAsm(-fac, &src[0], &dst[0], w)
					continue
				}
				for t, v := range src {
					dst[t] -= fac * v
				}
			}
			inv := 1 / urow[i]
			for t := range dst {
				dst[t] *= inv
			}
		}
	}
}
