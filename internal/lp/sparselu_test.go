package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildBandedSparse returns a solver state over an m×m sparse model (a
// dominant diagonal plus two off-diagonal bands, ~3 nonzeros per row)
// with an all-structural basis seated — the factorization workload.
func buildBandedSparse(m int) *sparse {
	mdl := NewModel()
	for j := 0; j < m; j++ {
		mdl.AddVar(1, math.Inf(1))
	}
	cols := make([]int, 0, 3)
	vals := make([]float64, 0, 3)
	for i := 0; i < m; i++ {
		cols = append(cols[:0], i, (i+1)%m, (i*17+5)%m)
		vals = append(vals[:0], 4, 1, 0.5)
		mdl.AddRow(cols, vals, GE, 1)
	}
	s := newSparse(mdl)
	for i := 0; i < m; i++ {
		s.basic[i] = i
		s.status[i] = inBasis
	}
	return s
}

// denseFactorize is the PR 4 dense-LU kernel (row-major, partial
// pivoting), retained here verbatim as the benchmark baseline the sparse
// Markowitz kernel replaced.
func denseFactorize(s *sparse, lu []float64, piv []int) error {
	mr := s.mr
	for i := range lu {
		lu[i] = 0
	}
	for i, b := range s.basic {
		if b < s.n {
			for k := s.colStart[b]; k < s.colStart[b+1]; k++ {
				lu[s.colRow[k]*mr+i] += s.colVal[k]
			}
		} else {
			lu[(b-s.n)*mr+i] += 1
		}
	}
	for k := 0; k < mr; k++ {
		p, best := k, math.Abs(lu[k*mr+k])
		for i := k + 1; i < mr; i++ {
			if a := math.Abs(lu[i*mr+k]); a > best {
				p, best = i, a
			}
		}
		if best < 1e-12 {
			return errSingularBasis
		}
		piv[k] = p
		if p != k {
			rk, rp := lu[k*mr:(k+1)*mr], lu[p*mr:(p+1)*mr]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivInv := 1 / lu[k*mr+k]
		for i := k + 1; i < mr; i++ {
			f := lu[i*mr+k] * pivInv
			if f == 0 {
				continue
			}
			lu[i*mr+k] = f
			ri, rk := lu[i*mr:(i+1)*mr], lu[k*mr:(k+1)*mr]
			for j := k + 1; j < mr; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return nil
}

// TestSparseLUSolvesAgainstDense cross-checks the Markowitz kernel's
// FTRAN/BTRAN on random bases against dense Gaussian elimination
// (solving B·x = v and Bᵀ·y = v for random v).
func TestSparseLUSolvesAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(12)
		mdl := NewModel()
		for j := 0; j < m; j++ {
			mdl.AddVar(1, math.Inf(1))
		}
		for i := 0; i < m; i++ {
			coefs := map[int]float64{i: 2 + rng.Float64()}
			for j := 0; j < m; j++ {
				if j != i && rng.Intn(3) == 0 {
					coefs[j] = rng.Float64() - 0.5
				}
			}
			mdl.AddConstraint(coefs, GE, 1)
		}
		s := newSparse(mdl)
		// Mixed basis: mostly structural, some logicals.
		for i := 0; i < m; i++ {
			if rng.Intn(4) == 0 {
				s.basic[i] = s.n + i
				s.status[s.n+i] = inBasis
			} else {
				s.basic[i] = i
				s.status[i] = inBasis
			}
		}
		if err := s.factorize(); err != nil {
			continue // a random basis may legitimately be singular
		}
		// Dense reference LU of the same basis.
		lu := make([]float64, m*m)
		piv := make([]int, m)
		if err := denseFactorize(s, lu, piv); err != nil {
			continue
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = rng.Float64()*4 - 2
		}
		// Sparse FTRAN result.
		x := append([]float64(nil), v...)
		s.ftran(x)
		// Dense forward/back substitution.
		y := append([]float64(nil), v...)
		for k := 0; k < m; k++ {
			if p := piv[k]; p != k {
				y[k], y[p] = y[p], y[k]
			}
		}
		for k := 0; k < m; k++ {
			for i := k + 1; i < m; i++ {
				y[i] -= lu[i*m+k] * y[k]
			}
		}
		for k := m - 1; k >= 0; k-- {
			y[k] /= lu[k*m+k]
			for i := 0; i < k; i++ {
				y[i] -= lu[i*m+k] * y[k]
			}
		}
		for i := 0; i < m; i++ {
			if math.Abs(x[i]-y[i]) > 1e-7*(1+math.Abs(y[i])) {
				t.Fatalf("trial %d: ftran[%d] = %v, dense %v", trial, i, x[i], y[i])
			}
		}
		// BTRAN against the residual definition: Bᵀ·y = v.
		yb := append([]float64(nil), v...)
		s.btran(yb)
		for i := 0; i < m; i++ {
			// Compute (Bᵀ·yb)[i] = column i of B dotted with yb.
			b := s.basic[i]
			var dot float64
			if b < s.n {
				for k := s.colStart[b]; k < s.colStart[b+1]; k++ {
					dot += s.colVal[k] * yb[s.colRow[k]]
				}
			} else {
				dot = yb[b-s.n]
			}
			if math.Abs(dot-v[i]) > 1e-7*(1+math.Abs(v[i])) {
				t.Fatalf("trial %d: btran residual row %d: %v vs %v", trial, i, dot, v[i])
			}
		}
	}
}

// optimalBasisState solves the m-row sparse LP and re-seats its optimal
// basis in a fresh solver state: exactly the basis the production loops
// refactorize every refactorEvery pivots.
func optimalBasisState(b *testing.B, m int) *sparse {
	b.Helper()
	mdl := buildSparseLP(m)
	sol, err := mdl.Solve()
	if err != nil || sol.Status != Optimal {
		b.Fatalf("benchmark model unsolvable: %v %v", sol, err)
	}
	s := newSparse(mdl)
	s.initFromBasis(sol.Basis)
	return s
}

func benchSparseFactor(b *testing.B, s *sparse) {
	if err := s.factorize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.factorize(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDenseFactor(b *testing.B, s *sparse) {
	lu := make([]float64, s.mr*s.mr)
	piv := make([]int, s.mr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := denseFactorize(s, lu, piv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSparseFactor* refactorize the *optimal* basis of the m-row
// sparse LP with the Markowitz kernel; BenchmarkLPDenseFactor* run the
// retained PR 4 dense LU on the identical basis — the ≥3× acceptance
// comparison at m=1000.
func BenchmarkLPSparseFactor200(b *testing.B)  { benchSparseFactor(b, optimalBasisState(b, 200)) }
func BenchmarkLPSparseFactor1000(b *testing.B) { benchSparseFactor(b, optimalBasisState(b, 1000)) }
func BenchmarkLPDenseFactor200(b *testing.B)   { benchDenseFactor(b, optimalBasisState(b, 200)) }
func BenchmarkLPDenseFactor1000(b *testing.B)  { benchDenseFactor(b, optimalBasisState(b, 1000)) }

// The banded all-structural basis has no singletons at all: every pivot
// goes through the general Markowitz search. Kept as the nucleus
// stress variant.
func BenchmarkLPSparseFactorBanded1000(b *testing.B) { benchSparseFactor(b, buildBandedSparse(1000)) }
func BenchmarkLPDenseFactorBanded1000(b *testing.B)  { benchDenseFactor(b, buildBandedSparse(1000)) }

// buildSparseLP builds an m-row sparse LP (5 random nonzeros per row,
// non-negative costs, finite bounds) — the Solve-level sweep-scale
// workload.
func buildSparseLP(m int) *Model {
	rng := rand.New(rand.NewSource(int64(m)))
	mdl := NewModel()
	nv := m
	for j := 0; j < nv; j++ {
		mdl.AddVar(0.5+rng.Float64(), 1+rng.Float64()*3)
	}
	cols := make([]int, 0, 5)
	vals := make([]float64, 0, 5)
	for i := 0; i < m; i++ {
		cols, vals = cols[:0], vals[:0]
		for k := 0; k < 5; k++ {
			cols = append(cols, rng.Intn(nv))
			vals = append(vals, 0.2+rng.Float64())
		}
		mdl.AddRow(cols, vals, GE, 0.5+rng.Float64())
	}
	return mdl
}

func benchSparseSolve(b *testing.B, m int) {
	mdl := buildSparseLP(m)
	if sol, err := mdl.Solve(); err != nil || sol.Status != Optimal {
		b.Fatalf("unsolvable benchmark model: %v %v", sol, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdl.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPSparseSolve* run the full revised simplex on m-row sparse
// models — the regime the ROADMAP's "thousands of rows" line points at.
func BenchmarkLPSparseSolve200(b *testing.B)  { benchSparseSolve(b, 200) }
func BenchmarkLPSparseSolve1000(b *testing.B) { benchSparseSolve(b, 1000) }

// BenchmarkLPSparseSolve2000 sits above both the Forrest–Tomlin gate
// (ftMinRows) and the steepest-edge gate (dseMinRows): the regime the
// PR 7 kernel work targets, where exact pricing's pivot savings beat its
// extra FTRAN.
func BenchmarkLPSparseSolve2000(b *testing.B) { benchSparseSolve(b, 2000) }
