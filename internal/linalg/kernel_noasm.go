//go:build !amd64

package linalg

// useAsm is false without the amd64 micro-kernels: every entry point
// runs the scalar reference path, and the stubs below are never
// reached (they exist so the portable driver compiles).
const useAsm = false

func gemm4x8(kc int, ap, bp, c *float64, ldc, mode int) {
	panic("linalg: gemm4x8 without asm support")
}

func axpyAsm(a float64, x, y *float64, n int) {
	panic("linalg: axpyAsm without asm support")
}
