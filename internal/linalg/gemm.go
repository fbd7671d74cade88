// Packed-panel GEMM engine. The driver tiles C into cache-sized
// blocks, packs the corresponding A and B panels into contiguous
// buffers laid out exactly as the micro-kernel consumes them, and
// drives the 4×8 register-blocked micro-kernel over the tiles:
//
//	for jc over N by gemmNC:         // B column block
//	  for pc over K by gemmKC:       // depth panel (accumulated in order)
//	    pack B[pc, jc] into bp       // nr-wide micro-panels, zero-padded
//	    for ic over M by gemmMC:     // A row block
//	      pack A[ic, pc] into ap     // mr-tall micro-panels, zero-padded
//	      for each 4×8 tile: gemm4x8(ap, bp, C)
//
// Panels are zero-padded to multiples of the micro-kernel shape, so
// edge tiles run the same full-speed kernel (padding contributes exact
// zeros); only the store of an edge tile goes through a small bounce
// buffer. The depth (pc) accumulation order is fixed, so output is
// deterministic.
package linalg

import (
	"fmt"
	"sync"
)

const (
	// Micro-kernel shape: mr×nr accumulators held in registers.
	mr = 4
	nr = 8
	// Cache blocking: an A block is gemmMC×gemmKC (256KB), a B panel
	// gemmKC×gemmNC (1MB) — sized so the A block stays L2-resident
	// while a B panel streams from L2/L3.
	gemmMC = 128
	gemmKC = 256
	gemmNC = 512
	// Below this many multiply-adds the packing overhead outweighs the
	// micro-kernel's throughput; the scalar reference path wins.
	gemmMinMadds = 16 * 16 * 16
)

// GEMM application modes for a computed tile.
const (
	gemmSet = iota // C = T
	gemmAdd        // C += T
	gemmSub        // C -= T
)

// zeroRow backs the packing of partial micro-panels: rows and columns
// beyond the matrix edge read exact zeros. Read-only after init.
var zeroRow [gemmKC]float64

// gemmBuf holds one packing workspace: the A block, the B panel, and
// the bounce tile for edge stores. Buffers grow on demand and are
// reused; a steady-state caller performs no allocation.
type gemmBuf struct {
	a, b []float64
	tile [mr * nr]float64
}

func (g *gemmBuf) sizeA(n int) []float64 {
	if cap(g.a) < n {
		g.a = make([]float64, n)
	}
	return g.a[:n]
}

func (g *gemmBuf) sizeB(n int) []float64 {
	if cap(g.b) < n {
		g.b = make([]float64, n)
	}
	return g.b[:n]
}

// gemmBufPool amortises packing buffers across MulInto calls, which
// carry no LU (and so no LU-owned buffer) of their own.
var gemmBufPool = sync.Pool{New: func() any { return new(gemmBuf) }}

// MulInto computes dst = a·b into dst (reshaped as needed) without
// allocating beyond dst's backing array at steady state. dst must not
// alias a or b.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dims %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if !useAsm || a.Rows*a.Cols*b.Cols < gemmMinMadds {
		return MulIntoRef(dst, a, b)
	}
	dst.reshapeNoClear(a.Rows, b.Cols)
	buf := gemmBufPool.Get().(*gemmBuf)
	defer gemmBufPool.Put(buf)
	gemmBlock(dst, 0, 0, a, 0, 0, b, 0, 0, a.Rows, a.Cols, b.Cols, gemmSet, buf)
	return dst
}

// Mul computes C = A·B into a fresh matrix.
func Mul(a, b *Matrix) *Matrix {
	return MulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// gemmBlock applies C[ci:ci+m, cj:cj+n] op= A[ai:ai+m, ak:ak+kk] ·
// B[bk:bk+kk, bj:bj+n] through the packed micro-kernel. mode gemmSet
// overwrites C (later depth panels accumulate), gemmAdd/gemmSub
// accumulate into existing C content. The A/B regions must not overlap
// the C region (reads and writes interleave per depth panel).
func gemmBlock(c *Matrix, ci, cj int, a *Matrix, ai, ak int, b *Matrix, bk, bj int, m, kk, n, mode int, buf *gemmBuf) {
	if m == 0 || n == 0 || kk == 0 {
		if kk == 0 && mode == gemmSet {
			for i := 0; i < m; i++ {
				row := c.Row(ci + i)[cj : cj+n]
				for j := range row {
					row[j] = 0
				}
			}
		}
		return
	}
	if !useAsm {
		gemmBlockRef(c, ci, cj, a, ai, ak, b, bk, bj, m, kk, n, mode)
		return
	}
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncp := roundUp(nc, nr)
		for pc := 0; pc < kk; pc += gemmKC {
			kc := min(gemmKC, kk-pc)
			md := mode
			if mode == gemmSet && pc > 0 {
				md = gemmAdd
			}
			bp := buf.sizeB(ncp * kc)
			packB(bp, b, bk+pc, bj+jc, kc, nc)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				ap := buf.sizeA(roundUp(mc, mr) * kc)
				packA(ap, a, ai+ic, ak+pc, mc, kc)
				gemmMacro(c, ci+ic, cj+jc, ap, bp, mc, kc, nc, md, &buf.tile)
			}
		}
	}
}

// gemmMacro runs the micro-kernel over every mr×nr tile of one packed
// A block × B panel pair. Full tiles store straight into C; edge tiles
// bounce through a stack-friendly scratch tile so the kernel never
// writes outside C.
func gemmMacro(c *Matrix, ci, cj int, ap, bp []float64, mc, kc, nc, mode int, tile *[mr * nr]float64) {
	for ir := 0; ir < mc; ir += mr {
		er := min(mr, mc-ir)
		apanel := &ap[ir*kc]
		for jr := 0; jr < nc; jr += nr {
			ec := min(nr, nc-jr)
			bpanel := &bp[jr*kc]
			if er == mr && ec == nr {
				gemm4x8(kc, apanel, bpanel, &c.Data[(ci+ir)*c.Cols+cj+jr], c.Cols, mode)
				continue
			}
			gemm4x8(kc, apanel, bpanel, &tile[0], nr, gemmSet)
			applyTile(c, ci+ir, cj+jr, er, ec, mode, tile)
		}
	}
}

// applyTile copies the valid er×ec corner of a bounce tile into C
// under the given mode.
func applyTile(c *Matrix, ci, cj, er, ec, mode int, tile *[mr * nr]float64) {
	for r := 0; r < er; r++ {
		crow := c.Row(ci + r)[cj : cj+ec]
		trow := tile[r*nr : r*nr+ec]
		switch mode {
		case gemmSet:
			copy(crow, trow)
		case gemmAdd:
			for j, v := range trow {
				crow[j] += v
			}
		case gemmSub:
			for j, v := range trow {
				crow[j] -= v
			}
		}
	}
}

// packA lays rows [ai, ai+mc) × cols [ak, ak+kc) of a out as mr-tall
// micro-panels: panel ir holds columns interleaved so the micro-kernel
// reads mr consecutive values per depth step. Rows beyond the edge
// pack exact zeros.
func packA(dst []float64, a *Matrix, ai, ak, mc, kc int) {
	z := zeroRow[:kc]
	for ir := 0; ir < mc; ir += mr {
		p := dst[ir*kc:]
		r0 := a.Row(ai + ir)[ak : ak+kc]
		r1, r2, r3 := z, z, z
		switch mc - ir {
		case 1:
		case 2:
			r1 = a.Row(ai + ir + 1)[ak : ak+kc]
		case 3:
			r1 = a.Row(ai + ir + 1)[ak : ak+kc]
			r2 = a.Row(ai + ir + 2)[ak : ak+kc]
		default:
			r1 = a.Row(ai + ir + 1)[ak : ak+kc]
			r2 = a.Row(ai + ir + 2)[ak : ak+kc]
			r3 = a.Row(ai + ir + 3)[ak : ak+kc]
		}
		for t := 0; t < kc; t++ {
			q := p[4*t : 4*t+4]
			q[0] = r0[t]
			q[1] = r1[t]
			q[2] = r2[t]
			q[3] = r3[t]
		}
	}
}

// packB lays rows [bk, bk+kc) × cols [bj, bj+nc) of b out as nr-wide
// micro-panels; columns beyond the edge pack exact zeros.
func packB(dst []float64, b *Matrix, bk, bj, kc, nc int) {
	for jr := 0; jr < nc; jr += nr {
		p := dst[jr*kc:]
		ec := min(nr, nc-jr)
		if ec == nr {
			for t := 0; t < kc; t++ {
				copy(p[nr*t:nr*t+nr], b.Row(bk + t)[bj+jr:bj+jr+nr])
			}
			continue
		}
		for t := 0; t < kc; t++ {
			q := p[nr*t : nr*t+nr]
			copy(q, b.Row(bk + t)[bj+jr:bj+jr+ec])
			for s := ec; s < nr; s++ {
				q[s] = 0
			}
		}
	}
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }
