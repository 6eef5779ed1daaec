package milp

import (
	"errors"
	"math"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
)

// TestStatePoolRespectsLimit: with a truncating limit the pool must
// contain exactly limit members, each optimal within tolerance, feasible,
// and a member of the complete slab (the capped pool runs the same warm
// single-tree enumeration and stops early; which members survive
// follows its discovery order).
func TestStatePoolRespectsLimit(t *testing.T) {
	build := func() *linexpr.Compiled {
		m := linexpr.NewModel()
		ids := make([]linexpr.VarID, 5)
		for i := range ids {
			ids[i] = m.Binary("")
		}
		m.Add("pick2", linexpr.Sum(ids...), linexpr.EQ, 2)
		m.SetObjective(linexpr.Sum(ids...), false)
		return m.Compile()
	}
	full, _, err := NewState(build(), Options{}).SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 10 {
		t.Fatalf("complete slab has %d members, want C(5,2) = 10", len(full))
	}
	slab := map[string]bool{}
	for _, ps := range full {
		slab[keyOf(ps.X)] = true
	}
	arena := build()
	st := NewState(arena, Options{})
	pool, agg, err := st.SolvePool(3, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Status != Optimal || len(pool) != 3 {
		t.Fatalf("status %v, %d members", agg.Status, len(pool))
	}
	if agg.WarmSolves == 0 {
		t.Error("capped pool recorded no warm solves: it must run on the warm state")
	}
	seen := map[string]bool{}
	for _, ps := range pool {
		if math.Abs(ps.Objective-2) > 1e-9 {
			t.Fatalf("member objective %v", ps.Objective)
		}
		if err := CheckFeasible(arena, ps.X, 1e-6); err != nil {
			t.Fatal(err)
		}
		k := keyOf(ps.X)
		if !slab[k] || seen[k] {
			t.Fatalf("capped member %s is not a distinct member of the complete slab", k)
		}
		seen[k] = true
	}
}

// TestStateUnboundedArenaErrors: a variable with an infinite bound cannot
// be hosted by either kernel; the State must report NoKernel and every
// solving call must return the lp.ErrUnboundedVar error.
func TestStateUnboundedArenaErrors(t *testing.T) {
	m := linexpr.NewModel()
	x := m.Binary("x")
	y := m.NewVar("y", linexpr.Continuous, 0, math.Inf(1))
	m.Add("cap", linexpr.Expr{}.PlusTerm(x, 1).PlusTerm(y, 1), linexpr.LE, 1.5)
	m.SetObjective(linexpr.Expr{}.PlusTerm(x, -2).PlusTerm(y, -1), false)
	st := NewState(m.Compile(), Options{})
	if st.Kernel() != NoKernel {
		t.Fatalf("kernel %v, want none for an unbounded variable", st.Kernel())
	}
	if _, err := st.Solve(); !errors.Is(err, lp.ErrUnboundedVar) {
		t.Fatalf("Solve error %v, want lp.ErrUnboundedVar", err)
	}
	if _, _, err := st.SolvePool(0, 1e-6); !errors.Is(err, lp.ErrUnboundedVar) {
		t.Fatalf("SolvePool error %v, want lp.ErrUnboundedVar", err)
	}
	st.SetRowRHS(0, 2) // arena-only retarget: must not panic without a kernel
}
