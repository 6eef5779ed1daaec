package presolve_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp/presolve"
	"hiopt/internal/milp"
	"hiopt/internal/milp/oracle"
	"hiopt/internal/rng"
)

// TestFixingFromActivityBounds: x + y + 5z <= 5 with binaries forces
// nothing, but x + y + 5z <= 4 forces z = 0.
func TestFixingFromActivityBounds(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	z := m.Binary("z")
	e := linexpr.Expr{}.PlusTerm(x, 1).PlusTerm(y, 1).PlusTerm(z, 5)
	m.Add("cap", e, linexpr.LE, 4)
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, -1).PlusTerm(y, -1).PlusTerm(z, -1), false)
	p := m.Compile()
	red := presolve.Analyze(p)
	b, ok := red.Fixed[int(z)]
	if !ok || b.Lo != 0 || b.Hi != 0 {
		t.Fatalf("want z fixed to 0, got %+v", red.Fixed)
	}
}

// TestFixingNegativeCoefficient: -5x + y >= 1 forces... -5x + y >= -3
// forces nothing; y - 5x >= 0 with y <= 1 forces x = 0.
func TestFixingNegativeCoefficient(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	e := linexpr.Expr{}.PlusTerm(y, 1).PlusTerm(x, -5)
	m.Add("force", e, linexpr.GE, 0)
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, -1).PlusTerm(y, -1), false)
	p := m.Compile()
	red := presolve.Analyze(p)
	b, ok := red.Fixed[int(x)]
	if !ok || b.Hi != 0 {
		t.Fatalf("want x fixed to 0, got %+v", red.Fixed)
	}
}

// TestRedundantRowDrop: x + y <= 5 over binaries can never bind.
func TestRedundantRowDrop(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("slack", linexpr.Expr{}.PlusTerm(x, 1).PlusTerm(y, 1), linexpr.LE, 5)
	m.Add("real", linexpr.Expr{}.PlusTerm(x, 1).PlusTerm(y, 1), linexpr.LE, 1)
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, -1).PlusTerm(y, -1), false)
	p := m.Compile()
	red := presolve.Analyze(p)
	if len(red.DropRows) != 1 || red.DropRows[0] != 0 {
		t.Fatalf("want row 0 dropped, got %v", red.DropRows)
	}
}

// TestCoefficientTightening: x + 2y <= 2 over binaries admits the same
// 0/1 points as x + y <= 1 but a weaker relaxation; presolve must
// rewrite it.
func TestCoefficientTightening(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("t", linexpr.Expr{}.PlusTerm(x, 1).PlusTerm(y, 2), linexpr.LE, 2)
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, -1).PlusTerm(y, -1), false)
	p := m.Compile()
	red := presolve.Analyze(p)
	st := red.Apply(p)
	if st.TightenedCoefs == 0 {
		t.Fatal("no tightening applied")
	}
	row := p.Rows[0]
	if row.Coefs[int(x)] != 1 || row.Coefs[int(y)] != 1 || row.RHS != 1 {
		t.Fatalf("want x + y <= 1, got %v <= %g", row.Coefs, row.RHS)
	}
}

// randomBinaryProblem builds a small random binary MILP.
func randomBinaryProblem(seed uint64, nv, nc int) *linexpr.Compiled {
	g := rng.NewSource(seed).Stream("presolve")
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, nv)
	for i := range ids {
		ids[i] = m.Binary("")
	}
	for r := 0; r < nc; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			if g.Uniform(0, 1) < 0.6 {
				e = e.PlusTerm(id, float64(int(g.Uniform(-4, 5))))
			}
		}
		sense := linexpr.LE
		if g.Uniform(0, 1) < 0.35 {
			sense = linexpr.GE
		}
		m.Add("", e, sense, float64(int(g.Uniform(-3, 6))))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, g.Uniform(-2, 2))
	}
	m.SetObjective(obj, g.Uniform(0, 1) < 0.3)
	return m.Compile()
}

func poolKeys(pool []milp.PoolSolution) []string {
	keys := make([]string, len(pool))
	for i, ps := range pool {
		var sb strings.Builder
		for _, v := range ps.X {
			if v > 0.5 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}

// TestReductionsPreserveOptimalPool is the presolve safety property: on
// random binary MILPs, the full optimal-solution pool of the reduced
// problem (tightened rows, dropped rows removed, fixings applied as
// bounds) must equal the original's as a set, member for member.
func TestReductionsPreserveOptimalPool(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 200; seed++ {
		p := randomBinaryProblem(seed, 7, 6)
		origPool, origAgg, err := oracle.SolvePool(p.Clone(), milp.Options{}, 0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		red := presolve.Analyze(p)
		q := p.Clone()
		redClone := presolve.Analyze(q) // same arena content, same reductions
		redClone.Apply(q)
		for j, b := range redClone.Fixed {
			q.Lo[j], q.Hi[j] = b.Lo, b.Hi
		}
		drop := map[int]bool{}
		for _, r := range redClone.DropRows {
			drop[r] = true
		}
		rows := q.Rows[:0]
		for i := range q.Rows {
			if !drop[i] {
				rows = append(rows, q.Rows[i])
			}
		}
		q.Rows = rows
		redPool, redAgg, err := oracle.SolvePool(q, milp.Options{}, 0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if origAgg.Status != redAgg.Status {
			t.Fatalf("seed %d: status %v vs %v (reduced)", seed, origAgg.Status, redAgg.Status)
		}
		if origAgg.Status != milp.Optimal {
			continue
		}
		if math.Abs(origAgg.Objective-redAgg.Objective) > 1e-9*(1+math.Abs(origAgg.Objective)) {
			t.Fatalf("seed %d: obj %.12g vs %.12g (reduced)", seed, origAgg.Objective, redAgg.Objective)
		}
		ok, rk := poolKeys(origPool), poolKeys(redPool)
		if len(ok) != len(rk) {
			t.Fatalf("seed %d: pool %d vs %d (reduced)\norig %v\nred  %v", seed, len(ok), len(rk), ok, rk)
		}
		for i := range ok {
			if ok[i] != rk[i] {
				t.Fatalf("seed %d member %d: %s vs %s", seed, i, ok[i], rk[i])
			}
		}
		if s := red.Stats(); s.FixedVars+s.DroppedRows+s.TightenedCoefs > 0 {
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("generator too tame: only %d/200 instances had reductions", checked)
	}
	t.Logf("instances with reductions: %d/200", checked)
}

// TestSkipRowsAreOpaque is the row-tag safety property (robust
// protection rows): on random binary MILPs with a subset of rows
// Skip-tagged, (a) no reduction may touch or be derived from a tagged
// row — it is never dropped, never tightened, and its coefficients and
// RHS survive Apply bit-identical; (b) the postsolve identity still
// holds: the reduced problem, with the tagged rows left in place, has
// the same status, optimal objective, and full solution pool as the
// original.
func TestSkipRowsAreOpaque(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 200; seed++ {
		g := rng.NewSource(seed).Stream("skiptag")
		p := randomBinaryProblem(seed, 7, 6)
		tagged := map[int]bool{}
		for i := range p.Rows {
			if g.Uniform(0, 1) < 0.4 {
				p.Rows[i].Skip = true
				tagged[i] = true
			}
		}
		if len(tagged) == 0 {
			p.Rows[0].Skip = true
			tagged[0] = true
		}
		origPool, origAgg, err := oracle.SolvePool(p.Clone(), milp.Options{}, 0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		before := p.Clone()
		red := presolve.Analyze(p)
		red.Apply(p)
		for _, r := range red.DropRows {
			if tagged[r] {
				t.Fatalf("seed %d: Skip row %d dropped", seed, r)
			}
		}
		for i := range tagged {
			br, ar := before.Rows[i], p.Rows[i]
			if br.RHS != ar.RHS {
				t.Fatalf("seed %d: Skip row %d RHS rewritten %g -> %g", seed, i, br.RHS, ar.RHS)
			}
			for j := range br.Coefs {
				if br.Coefs[j] != ar.Coefs[j] {
					t.Fatalf("seed %d: Skip row %d coef %d rewritten %g -> %g", seed, i, j, br.Coefs[j], ar.Coefs[j])
				}
			}
		}
		// Postsolve identity with tagged rows present: apply fixings as
		// bounds, remove dropped rows (all untagged), keep everything else.
		for j, b := range red.Fixed {
			p.Lo[j], p.Hi[j] = b.Lo, b.Hi
		}
		drop := map[int]bool{}
		for _, r := range red.DropRows {
			drop[r] = true
		}
		rows := p.Rows[:0]
		for i := range p.Rows {
			if !drop[i] {
				rows = append(rows, p.Rows[i])
			}
		}
		p.Rows = rows
		redPool, redAgg, err := oracle.SolvePool(p, milp.Options{}, 0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if origAgg.Status != redAgg.Status {
			t.Fatalf("seed %d: status %v vs %v (reduced)", seed, origAgg.Status, redAgg.Status)
		}
		if origAgg.Status != milp.Optimal {
			continue
		}
		if math.Abs(origAgg.Objective-redAgg.Objective) > 1e-9*(1+math.Abs(origAgg.Objective)) {
			t.Fatalf("seed %d: obj %.12g vs %.12g (reduced)", seed, origAgg.Objective, redAgg.Objective)
		}
		ok, rk := poolKeys(origPool), poolKeys(redPool)
		if len(ok) != len(rk) {
			t.Fatalf("seed %d: pool %d vs %d (reduced)", seed, len(ok), len(rk))
		}
		for i := range ok {
			if ok[i] != rk[i] {
				t.Fatalf("seed %d member %d: %s vs %s", seed, i, ok[i], rk[i])
			}
		}
		if s := red.Stats(); s.FixedVars+s.DroppedRows+s.TightenedCoefs > 0 {
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("generator too tame: only %d/200 tagged instances had reductions", checked)
	}
	t.Logf("tagged instances with reductions: %d/200", checked)
}
