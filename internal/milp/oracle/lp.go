package oracle

import (
	"math"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
)

// SolveLP optimizes the LP relaxation of p (integrality flags are
// ignored) with a dense two-phase primal simplex. The problem is reduced
// to standard form from scratch:
//
//   - variables are shifted/mirrored/split so every structural variable is
//     non-negative (infinite bounds are allowed, unlike the warm kernels);
//   - finite upper bounds become explicit rows;
//   - phase 1 minimizes the sum of artificial variables to find a basic
//     feasible solution, phase 2 optimizes the true objective.
//
// Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
// after a stall threshold, which guarantees termination. ShadowPrices
// are filled for every arena row.
func SolveLP(p *linexpr.Compiled) (*lp.Solution, error) {
	for i := 0; i < p.NumVars; i++ {
		if p.Lo[i] > p.Hi[i]+lp.Tolerance {
			return &lp.Solution{Status: lp.Infeasible}, nil
		}
	}

	maps, ncols := buildVarMaps(p)

	// Assemble rows: original constraints rewritten in shifted variables,
	// then upper-bound rows for range variables.
	type row struct {
		coefs   []float64
		sense   linexpr.Sense
		rhs     float64
		flipped bool
	}
	var rows []row
	for _, r := range p.Rows {
		coefs := make([]float64, ncols)
		rhs := r.RHS
		for j := 0; j < p.NumVars; j++ {
			a := r.Coefs[j]
			if a == 0 {
				continue
			}
			m := maps[j]
			switch m.mode {
			case 0: // x = lo + x'
				coefs[m.col] += a
				rhs -= a * m.lo
			case 1: // x = hi - x'
				coefs[m.col] -= a
				rhs -= a * m.hi
			case 2: // x = x⁺ - x⁻
				coefs[m.col] += a
				coefs[m.neg] -= a
			}
		}
		rows = append(rows, row{coefs, r.Sense, rhs, false})
	}
	for j := 0; j < p.NumVars; j++ {
		m := maps[j]
		if !m.boundRow {
			continue
		}
		coefs := make([]float64, ncols)
		coefs[m.col] = 1
		rows = append(rows, row{coefs, linexpr.LE, m.hi - m.lo, false})
	}

	// Objective in shifted variables.
	obj := make([]float64, ncols)
	objConst := p.ObjConst
	for j := 0; j < p.NumVars; j++ {
		c := p.Obj[j]
		if c == 0 {
			continue
		}
		m := maps[j]
		switch m.mode {
		case 0:
			obj[m.col] += c
			objConst += c * m.lo
		case 1:
			obj[m.col] -= c
			objConst += c * m.hi
		case 2:
			obj[m.col] += c
			obj[m.neg] -= c
		}
	}

	// Normalize RHS signs and count auxiliary columns.
	m := len(rows)
	slackCount, artCount := 0, 0
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coefs {
				rows[i].coefs[j] = -rows[i].coefs[j]
			}
			rows[i].rhs = -rows[i].rhs
			rows[i].flipped = true
			switch rows[i].sense {
			case linexpr.LE:
				rows[i].sense = linexpr.GE
			case linexpr.GE:
				rows[i].sense = linexpr.LE
			}
		}
		switch rows[i].sense {
		case linexpr.LE:
			slackCount++
		case linexpr.GE:
			slackCount++
			artCount++
		case linexpr.EQ:
			artCount++
		}
	}

	total := ncols + slackCount + artCount
	// Tableau: m rows × (total + 1); last column is RHS.
	t := newTableau(m, total)
	basis := make([]int, m)
	artStart := ncols + slackCount
	si, ai := ncols, artStart
	// dualCol/dualSign record, per row, the auxiliary column whose final
	// reduced cost yields the row's dual value and the sign to apply
	// (accounting for RHS-normalization flips and the aux column's
	// orientation).
	dualCol := make([]int, m)
	dualSign := make([]float64, m)
	for i, r := range rows {
		copy(t.a[i], r.coefs)
		t.a[i][total] = r.rhs
		sign := 1.0
		if r.flipped {
			sign = -1
		}
		switch r.sense {
		case linexpr.LE:
			t.a[i][si] = 1
			basis[i] = si
			dualCol[i], dualSign[i] = si, -sign
			si++
		case linexpr.GE:
			t.a[i][si] = -1
			dualCol[i], dualSign[i] = si, sign
			si++
			t.a[i][ai] = 1
			basis[i] = ai
			ai++
		case linexpr.EQ:
			t.a[i][ai] = 1
			basis[i] = ai
			dualCol[i], dualSign[i] = ai, -sign
			ai++
		}
	}

	sol := &lp.Solution{}

	// Phase 1: minimize the sum of artificials.
	if artCount > 0 {
		phase1 := make([]float64, total)
		for j := artStart; j < total; j++ {
			phase1[j] = 1
		}
		t.setObjective(phase1, basis)
		st, iters := t.iterate(basis, total)
		sol.Iterations += iters
		if st != lp.Optimal {
			sol.Status = st
			return sol, nil
		}
		if t.objValue() > 1e-7 {
			sol.Status = lp.Infeasible
			return sol, nil
		}
		// Pivot remaining artificials out of the basis where possible;
		// rows where it's impossible are redundant and can be ignored by
		// zeroing their artificial (it stays basic at value 0).
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > 1e-7 {
					t.pivot(i, j)
					basis[i] = j
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: leave the artificial basic at zero but
				// forbid it from re-entering by clearing its column in
				// the phase-2 problem (handled by limiting entering
				// columns below).
				continue
			}
		}
	}

	// Phase 2: true objective over structural + slack columns only.
	phase2 := make([]float64, total)
	copy(phase2, obj)
	t.setObjective(phase2, basis)
	st, iters := t.iterate(basis, artStart) // artificials may not enter
	sol.Iterations += iters
	if st != lp.Optimal {
		sol.Status = st
		return sol, nil
	}

	// Recover the solution in original variable space.
	xs := make([]float64, total)
	for i, b := range basis {
		xs[b] = t.a[i][total]
	}
	x := make([]float64, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		mm := maps[j]
		switch mm.mode {
		case 0:
			x[j] = mm.lo + xs[mm.col]
		case 1:
			x[j] = mm.hi - xs[mm.col]
		case 2:
			x[j] = xs[mm.col] - xs[mm.neg]
		}
	}
	z := objConst
	for j := 0; j < ncols; j++ {
		z += obj[j] * xs[j]
	}
	if p.Negated {
		z = -z
	}
	// Duals for the original constraint rows (bound rows excluded): the
	// final reduced cost of a row's auxiliary column encodes −y_i (slack
	// / artificial) or +y_i (surplus); flips negate, and a negated
	// maximization negates once more to return caller-direction prices.
	shadow := make([]float64, len(p.Rows))
	dirSign := 1.0
	if p.Negated {
		dirSign = -1
	}
	for i := range p.Rows {
		shadow[i] = dirSign * dualSign[i] * t.z[dualCol[i]]
	}
	sol.ShadowPrices = shadow
	sol.Status = lp.Optimal
	sol.X = x
	sol.Objective = z
	return sol, nil
}

func buildVarMaps(p *linexpr.Compiled) ([]varMap, int) {
	maps := make([]varMap, p.NumVars)
	ncols := 0
	for j := 0; j < p.NumVars; j++ {
		lo, hi := p.Lo[j], p.Hi[j]
		switch {
		case !math.IsInf(lo, -1):
			maps[j] = varMap{mode: 0, col: ncols, lo: lo, hi: hi, boundRow: !math.IsInf(hi, 1)}
			ncols++
		case !math.IsInf(hi, 1):
			maps[j] = varMap{mode: 1, col: ncols, lo: lo, hi: hi}
			ncols++
		default:
			maps[j] = varMap{mode: 2, col: ncols, neg: ncols + 1}
			ncols += 2
		}
	}
	return maps, ncols
}

// tableau is a dense simplex tableau with an extra objective row.
type tableau struct {
	m, n int // rows, columns excluding RHS
	a    [][]float64
	// z is the reduced-cost row; zv the (negated) objective value cell.
	z  []float64
	zv float64
}

func newTableau(m, n int) *tableau {
	t := &tableau{m: m, n: n}
	t.a = make([][]float64, m)
	buf := make([]float64, m*(n+1))
	for i := range t.a {
		t.a[i] = buf[i*(n+1) : (i+1)*(n+1)]
	}
	t.z = make([]float64, n+1)
	return t
}

// setObjective installs cost vector c and prices out the current basis so
// reduced costs of basic columns become zero.
func (t *tableau) setObjective(c []float64, basis []int) {
	copy(t.z, c)
	t.z[t.n] = 0
	t.zv = 0
	for i, b := range basis {
		cb := c[b]
		if cb == 0 {
			continue
		}
		for j := 0; j <= t.n; j++ {
			t.z[j] -= cb * t.a[i][j]
		}
	}
	t.zv = -t.z[t.n]
	t.z[t.n] = 0
}

func (t *tableau) objValue() float64 { return t.zv }

// pivot performs a Gauss–Jordan pivot on element (r, c).
func (t *tableau) pivot(r, c int) {
	pr := t.a[r]
	pv := pr[c]
	inv := 1 / pv
	for j := 0; j <= t.n; j++ {
		pr[j] *= inv
	}
	pr[c] = 1 // counter rounding
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			row[j] -= f * pr[j]
		}
		row[c] = 0
	}
	f := t.z[c]
	if f != 0 {
		for j := 0; j <= t.n; j++ {
			t.z[j] -= f * pr[j]
		}
		t.z[c] = 0
		t.zv += f * pr[t.n]
	}
}

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration cap. Columns >= colLimit are barred from entering (used to keep
// artificials out during phase 2).
func (t *tableau) iterate(basis []int, colLimit int) (lp.Status, int) {
	maxIter := 200 * (t.m + t.n + 10)
	blandAfter := 20 * (t.m + t.n + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Entering column.
		enter := -1
		if iter < blandAfter {
			best := -lp.Tolerance
			for j := 0; j < colLimit; j++ {
				if t.z[j] < best {
					best = t.z[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < colLimit; j++ {
				if t.z[j] < -lp.Tolerance {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return lp.Optimal, iter
		}
		// Leaving row by minimum ratio; Bland tie-break on basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aie := t.a[i][enter]
			if aie <= lp.Tolerance {
				continue
			}
			ratio := t.a[i][t.n] / aie
			if ratio < bestRatio-lp.Tolerance || (ratio < bestRatio+lp.Tolerance && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return lp.Unbounded, iter
		}
		t.pivot(leave, enter)
		basis[leave] = enter
	}
	return lp.IterationLimit, maxIter
}

// varMap records how one original variable was rewritten into standard-form
// columns, so solutions can be mapped back.
type varMap struct {
	// mode: 0 shifted (x = lo + x'), 1 mirrored (x = hi - x'),
	// 2 split free (x = x⁺ - x⁻).
	mode     int
	col      int // first standard-form column
	neg      int // second column for split variables
	lo, hi   float64
	boundRow bool // whether a finite range required an upper-bound row
}
