//go:build amd64

package linalg

// useAsm reports whether the AVX2+FMA micro-kernels are usable on this
// CPU. When false (pre-Haswell hardware, or YMM state disabled by the
// OS), every kernel falls back to the scalar reference path.
var useAsm = cpuHasAVX2FMA()

// cpuHasAVX2FMA probes CPUID for AVX2+FMA3 support and XGETBV for OS
// YMM-state support.
func cpuHasAVX2FMA() bool

// gemm4x8 computes the 4×8 register-blocked tile product over packed
// micro-panels and stores (mode 0), adds (1), or subtracts (2) it into
// C with row stride ldc. Implemented in gemm_amd64.s.
//
//go:noescape
func gemm4x8(kc int, ap, bp, c *float64, ldc, mode int)

// axpyAsm computes y += a·x with a 16-wide FMA loop.
//
//go:noescape
func axpyAsm(a float64, x, y *float64, n int)
