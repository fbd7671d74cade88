package reach

import "repro/internal/linalg"

// damping is applied on a retry if a taboo chain is numerically
// singular: a closed recurrent class that never passes through the
// source. Pruning conserves flow, so such classes are common — most
// sources of a served CFG take this retry.
const damping = 1e-9

// scratch is the per-Compute working storage of the per-source path:
// one factorisation, the taboo chain, its fundamental matrix N, the
// product N·diag(len), M = N·diag(len)·N, and four length-n vectors.
// Every source overwrites all of it, so Compute allocates it once
// whatever the graph's size.
type scratch struct {
	lu              *linalg.LU
	A, N, ND, M     *linalg.Matrix
	x, gv, h, gcirc []float64
}

func newScratch(n int) *scratch {
	return &scratch{
		lu: linalg.NewLU(n),
		A:  linalg.NewMatrix(n, n), N: linalg.NewMatrix(n, n),
		ND: linalg.NewMatrix(n, n), M: linalg.NewMatrix(n, n),
		x: make([]float64, n), gv: make([]float64, n),
		h: make([]float64, n), gcirc: make([]float64, n),
	}
}

// source fills rows i of the probability and distance matrices by
// factorising the taboo chain of source i: O(n³) per source, O(n⁴) per
// CFG.
func (sc *scratch) source(P *linalg.Matrix, lens []float64, i int, probRow, distRow []float64) error {
	n := P.Rows
	if err := sc.tabooFundamental(P, i, 1); err != nil {
		if err = sc.tabooFundamental(P, i, 1-damping); err != nil {
			return err
		}
	}
	N := sc.N
	// M = N·diag(len)·N.
	ND := sc.ND
	ND.CopyFrom(N)
	for r := 0; r < n; r++ {
		row := ND.Row(r)
		for c := 0; c < n; c++ {
			row[c] *= lens[c]
		}
	}
	M := linalg.MulInto(sc.M, ND, N)

	srcRow := P.Row(i)
	x, gv, h, gcirc := sc.x, sc.gv, sc.h, sc.gcirc

	// j == i: first-return probability and distance.
	// h(v) = Pr_v(hit i before leaking) = (N·a)(v), a = P(:,i).
	for v := 0; v < n; v++ {
		s := 0.0
		Nrow := N.Row(v)
		for u := 0; u < n; u++ {
			if u == i {
				continue
			}
			s += Nrow[u] * P.At(u, i)
		}
		h[v] = s
	}
	// g°(v) = (N·(len ⊙ h))(v).
	for v := 0; v < n; v++ {
		s := 0.0
		Nrow := N.Row(v)
		for u := 0; u < n; u++ {
			if u == i {
				continue
			}
			s += Nrow[u] * lens[u] * h[u]
		}
		gcirc[v] = s
	}
	rpII := srcRow[i] // immediate self-loop: success, no intermediates
	numII := 0.0
	for v := 0; v < n; v++ {
		if v == i || srcRow[v] == 0 {
			continue
		}
		rpII += srcRow[v] * h[v]
		numII += srcRow[v] * gcirc[v]
	}
	probRow[i] = clamp01(rpII)
	// A return probability at round-off scale would make numII/rpII a
	// noise ratio, so such pairs report distance 0 like any other
	// unreachable pair (the same guard as the j != i pairs below).
	if rpII > 1e-12 {
		distRow[i] = lens[i] + numII/rpII
	}

	// j != i.
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		njj := N.At(j, j)
		if njj <= 0 {
			continue
		}
		// x = M(:,j)/njj − N(:,j)·len(j)
		for v := 0; v < n; v++ {
			x[v] = M.At(v, j)/njj - N.At(v, j)*lens[j]
		}
		// β = (q_jᵀ·x)/njj, q_j = row j of taboo chain (col i zeroed).
		beta := 0.0
		Pj := P.Row(j)
		for v := 0; v < n; v++ {
			if v == i {
				continue
			}
			beta += Pj[v] * x[v]
		}
		beta /= njj
		for v := 0; v < n; v++ {
			gv[v] = x[v] - N.At(v, j)*beta
		}
		gv[j] = 0

		rp := 0.0
		num := 0.0
		for v := 0; v < n; v++ {
			pv := srcRow[v]
			if pv == 0 || v == i {
				continue
			}
			if v == j {
				rp += pv // direct hit, no intermediates
			} else {
				rp += pv * (N.At(v, j) / njj)
				num += pv * gv[v]
			}
		}
		probRow[j] = clamp01(rp)
		if rp > 1e-12 {
			d := lens[i] + num/rp
			if d < lens[i] {
				d = lens[i]
			}
			distRow[j] = d
		}
	}
	return nil
}

// tabooFundamental computes sc.N = (I − s·Q_i)⁻¹ where Q_i is P with
// row i and column i zeroed.
func (sc *scratch) tabooFundamental(P *linalg.Matrix, i int, s float64) error {
	n := P.Rows
	A := sc.A
	for r := 0; r < n; r++ {
		Arow := A.Row(r)
		for c := range Arow {
			Arow[c] = 0
		}
		Arow[r] = 1
		if r == i {
			continue
		}
		Prow := P.Row(r)
		for c := 0; c < n; c++ {
			if c == i {
				continue
			}
			Arow[c] -= s * Prow[c]
		}
	}
	if err := sc.lu.FactorInto(A); err != nil {
		return err
	}
	sc.lu.InverseInto(sc.N)
	return nil
}
