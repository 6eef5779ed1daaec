package lp_test

import (
	"math"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/milp/oracle"
	"hiopt/internal/rng"
)

func solveModel(t *testing.T, m *linexpr.Model) *lp.Solution {
	t.Helper()
	s, err := oracle.SolveLP(m.Compile())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → x=4, y=0, z=12.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, math.Inf(1))
	y := m.NewVar("y", linexpr.Continuous, 0, math.Inf(1))
	m.Add("c1", linexpr.Sum(x, y), linexpr.LE, 4)
	m.Add("c2", linexpr.TermOf(x, 1).PlusTerm(y, 3), linexpr.LE, 6)
	m.SetObjective(linexpr.TermOf(x, 3).PlusTerm(y, 2), true)

	s := solveModel(t, m)
	if s.Status != lp.Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-12) > 1e-7 || math.Abs(s.X[x]-4) > 1e-7 {
		t.Errorf("got z=%v x=%v, want z=12 x=4", s.Objective, s.X[x])
	}
}

func TestMinimizationWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7, y=3, z=23.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 2, math.Inf(1))
	y := m.NewVar("y", linexpr.Continuous, 3, math.Inf(1))
	m.Add("cover", linexpr.Sum(x, y), linexpr.GE, 10)
	m.SetObjective(linexpr.TermOf(x, 2).PlusTerm(y, 3), false)

	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.Objective-23) > 1e-7 {
		t.Fatalf("got %v z=%v, want optimal z=23", s.Status, s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y == 4, 0 <= x,y <= 3 → y=2, x=0, z=2.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, 3)
	y := m.NewVar("y", linexpr.Continuous, 0, 3)
	m.Add("eq", linexpr.TermOf(x, 1).PlusTerm(y, 2), linexpr.EQ, 4)
	m.SetObjective(linexpr.Sum(x, y), false)

	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.Objective-2) > 1e-7 {
		t.Fatalf("got %v z=%v, want optimal z=2", s.Status, s.Objective)
	}
	if math.Abs(s.X[x]+2*s.X[y]-4) > 1e-7 {
		t.Errorf("equality violated: x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, 1)
	m.Add("lo", linexpr.TermOf(x, 1), linexpr.GE, 2)
	m.SetObjective(linexpr.TermOf(x, 1), false)
	if s := solveModel(t, m); s.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestEmptyDomainInfeasible(t *testing.T) {
	c := &linexpr.Compiled{
		NumVars: 1,
		Obj:     []float64{1},
		Lo:      []float64{2},
		Hi:      []float64{1},
		Integer: []bool{false},
		Names:   []string{"x"},
	}
	s, err := oracle.SolveLP(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, math.Inf(1))
	m.SetObjective(linexpr.TermOf(x, 1), true) // max x, no constraint
	if s := solveModel(t, m); s.Status != lp.Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min |style| problem: min x s.t. x >= -5 via constraint (x free).
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, math.Inf(-1), math.Inf(1))
	m.Add("lb", linexpr.TermOf(x, 1), linexpr.GE, -5)
	m.SetObjective(linexpr.TermOf(x, 1), false)
	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.Objective+5) > 1e-7 {
		t.Fatalf("got %v z=%v, want optimal z=-5", s.Status, s.Objective)
	}
}

func TestUpperBoundedOnlyVariable(t *testing.T) {
	// max x with x <= 7 as a variable bound (lo = -inf).
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, math.Inf(-1), 7)
	m.Add("lb", linexpr.TermOf(x, 1), linexpr.GE, 0)
	m.SetObjective(linexpr.TermOf(x, 1), true)
	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.Objective-7) > 1e-7 {
		t.Fatalf("got %v z=%v, want optimal z=7", s.Status, s.Objective)
	}
}

func TestShiftedLowerBound(t *testing.T) {
	// Negative lower bounds exercise the shift x = lo + x'.
	// min x + y, x in [-10, -1], y in [-4, 8], x + y >= -8 → z = -8.
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, -10, -1)
	y := m.NewVar("y", linexpr.Continuous, -4, 8)
	m.Add("c", linexpr.Sum(x, y), linexpr.GE, -8)
	m.SetObjective(linexpr.Sum(x, y), false)
	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.Objective+8) > 1e-7 {
		t.Fatalf("got %v z=%v, want optimal z=-8", s.Status, s.Objective)
	}
	if s.X[x] < -10-1e-9 || s.X[x] > -1+1e-9 {
		t.Errorf("x=%v violates its bounds", s.X[x])
	}
}

func TestFixedVariable(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 3, 3)
	y := m.NewVar("y", linexpr.Continuous, 0, 10)
	m.Add("c", linexpr.Sum(x, y), linexpr.LE, 8)
	m.SetObjective(linexpr.TermOf(y, 1), true)
	s := solveModel(t, m)
	if s.Status != lp.Optimal || math.Abs(s.X[x]-3) > 1e-9 || math.Abs(s.Objective-5) > 1e-7 {
		t.Fatalf("got %v x=%v z=%v, want x=3 z=5", s.Status, s.X[x], s.Objective)
	}
}

func TestObjectiveConstantOffset(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, 0, 2)
	m.SetObjective(linexpr.TermOf(x, 1).PlusConst(100), false)
	s := solveModel(t, m)
	if math.Abs(s.Objective-100) > 1e-7 {
		t.Fatalf("objective constant lost: z=%v, want 100", s.Objective)
	}
}

func TestDegenerateProblemTerminates(t *testing.T) {
	// Classic degenerate LP that cycles under naive Dantzig without
	// anti-cycling (Beale's example structure).
	m := linexpr.NewModel()
	x1 := m.NewVar("x1", linexpr.Continuous, 0, math.Inf(1))
	x2 := m.NewVar("x2", linexpr.Continuous, 0, math.Inf(1))
	x3 := m.NewVar("x3", linexpr.Continuous, 0, math.Inf(1))
	x4 := m.NewVar("x4", linexpr.Continuous, 0, math.Inf(1))
	m.Add("r1", linexpr.TermOf(x1, 0.25).PlusTerm(x2, -60).PlusTerm(x3, -1.0/25).PlusTerm(x4, 9), linexpr.LE, 0)
	m.Add("r2", linexpr.TermOf(x1, 0.5).PlusTerm(x2, -90).PlusTerm(x3, -1.0/50).PlusTerm(x4, 3), linexpr.LE, 0)
	m.Add("r3", linexpr.TermOf(x3, 1), linexpr.LE, 1)
	m.SetObjective(linexpr.TermOf(x1, 0.75).PlusTerm(x2, -150).PlusTerm(x3, 0.02).PlusTerm(x4, -6), true)

	s := solveModel(t, m)
	if s.Status != lp.Optimal {
		t.Fatalf("status = %v, want optimal (anti-cycling failed?)", s.Status)
	}
	if math.Abs(s.Objective-0.05) > 1e-6 {
		t.Errorf("z = %v, want 0.05", s.Objective)
	}
}

// TestRandomLPsFeasibleAndBoundConsistent generates random bounded LPs over
// box domains and checks two invariants of every optimal answer: the point
// satisfies all constraints, and no corner of a sampled set beats the
// reported optimum (local optimality probe).
func TestRandomLPsFeasibleAndBoundConsistent(t *testing.T) {
	src := rng.NewSource(987)
	g := src.Stream("lptest")
	for trial := 0; trial < 60; trial++ {
		n := 2 + g.Intn(4)
		rows := 1 + g.Intn(5)
		m := linexpr.NewModel()
		ids := make([]linexpr.VarID, n)
		for i := range ids {
			ids[i] = m.NewVar("", linexpr.Continuous, 0, 1+g.Float64()*9)
		}
		for r := 0; r < rows; r++ {
			e := linexpr.Expr{}
			for _, id := range ids {
				e = e.PlusTerm(id, g.Uniform(-3, 3))
			}
			sense := linexpr.LE
			if g.Intn(2) == 0 {
				sense = linexpr.GE
			}
			// RHS chosen so origin-ish points are often feasible.
			rhs := g.Uniform(-2, 10)
			if sense == linexpr.GE {
				rhs = g.Uniform(-10, 2)
			}
			m.Add("", e, sense, rhs)
		}
		obj := linexpr.Expr{}
		for _, id := range ids {
			obj = obj.PlusTerm(id, g.Uniform(-2, 2))
		}
		m.SetObjective(obj, false)

		c := m.Compile()
		s, err := oracle.SolveLP(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != lp.Optimal {
			continue // infeasible instances are fine
		}
		// Invariant 1: feasibility of the returned point.
		for ri, row := range c.Rows {
			lhs := 0.0
			for j, cf := range row.Coefs {
				lhs += cf * s.X[j]
			}
			switch row.Sense {
			case linexpr.LE:
				if lhs > row.RHS+1e-6 {
					t.Fatalf("trial %d row %d: %v <= %v violated", trial, ri, lhs, row.RHS)
				}
			case linexpr.GE:
				if lhs < row.RHS-1e-6 {
					t.Fatalf("trial %d row %d: %v >= %v violated", trial, ri, lhs, row.RHS)
				}
			}
		}
		for j := range s.X {
			if s.X[j] < c.Lo[j]-1e-6 || s.X[j] > c.Hi[j]+1e-6 {
				t.Fatalf("trial %d: var %d = %v outside [%v, %v]", trial, j, s.X[j], c.Lo[j], c.Hi[j])
			}
		}
		// Invariant 2: random feasible samples never beat the optimum.
		for probe := 0; probe < 200; probe++ {
			pt := make([]float64, n)
			for j := range pt {
				pt[j] = g.Uniform(c.Lo[j], c.Hi[j])
			}
			feasible := true
			for _, row := range c.Rows {
				lhs := 0.0
				for j, cf := range row.Coefs {
					lhs += cf * pt[j]
				}
				if (row.Sense == linexpr.LE && lhs > row.RHS) || (row.Sense == linexpr.GE && lhs < row.RHS) {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			val := c.ObjConst
			for j := range pt {
				val += c.Obj[j] * pt[j]
			}
			if val < s.Objective-1e-6 {
				t.Fatalf("trial %d: sampled point beats 'optimal' solution: %v < %v", trial, val, s.Objective)
			}
		}
	}
}

func TestSolutionStatusString(t *testing.T) {
	for s, want := range map[lp.Status]string{lp.Optimal: "optimal", lp.Infeasible: "infeasible", lp.Unbounded: "unbounded", lp.IterationLimit: "iteration-limit"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
