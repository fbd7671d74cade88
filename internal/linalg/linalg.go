// Package linalg provides the dense linear-algebra kernels the
// reaching-probability engine needs: row-major matrices, LU
// factorisation with partial pivoting, solves, inversion, and
// matrix multiplication.
//
// # Kernel architecture
//
// The O(n³) kernels are built around a packed-panel, register-blocked
// micro-kernel (see gemm.go): operands are packed into contiguous
// panel buffers and driven through a 4×8 multi-accumulator micro-kernel
// (AVX2+FMA assembly on amd64, selected at start-up by CPUID). LU
// factorisation is blocked right-looking — panel factorisation, a
// triangular solve of the panel's row block, and a trailing-submatrix
// update through the same GEMM kernel — and inversion is a blocked
// forward/back substitution over all columns at once whose bulk is
// again GEMM. On architectures without the assembly micro-kernel every
// entry point falls back to the scalar reference kernels
// (reference.go), which are also kept as the parity oracle for the
// property tests. Every kernel is serial: its callers (one reach
// computation per CFG) parallelise across CFGs, not within one.
//
// # Allocation contract
//
// The convenience entry points (NewMatrix, Factor, Invert, Mul) allocate
// their results. Every one of them is backed by an in-place kernel that
// does not allocate at steady state:
//
//	FactorInto   factorises into an existing LU's storage
//	Solve        solves using the LU's internal scratch
//	InverseInto  writes A⁻¹ into an existing matrix
//	MulInto      writes A·B into an existing matrix (packed/blocked)
//
// so a caller that computes in a loop (the reach engine factorises,
// inverts and multiplies once per source node) keeps one LU and its
// destination matrices and reuses them on every iteration. LU values
// and the in-place kernels are NOT safe for concurrent use; give each
// goroutine its own.
package linalg

import "errors"

// ErrSingular is returned when a factorisation meets an (effectively)
// singular pivot.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Reshape resizes m to rows×cols, reusing its backing array when it is
// large enough, and zeroes the content.
func (m *Matrix) Reshape(rows, cols int) {
	m.reshapeNoClear(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// reshapeNoClear resizes m without zeroing: the internal form of
// Reshape for kernels that overwrite every element anyway (CopyFrom,
// the packed GEMM paths, blocked solves). Exported callers get
// Reshape's zeroing contract; in-package hot paths skip the redundant
// clear.
func (m *Matrix) reshapeNoClear(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom resizes m to a's shape and copies a's content.
func (m *Matrix) CopyFrom(a *Matrix) {
	m.reshapeNoClear(a.Rows, a.Cols)
	copy(m.Data, a.Data)
}

// ApproxBytes reports the matrix's resident size for cache accounting.
func (m *Matrix) ApproxBytes() int64 { return int64(cap(m.Data))*8 + 48 }
