package milp

import (
	"math"
	"testing"

	"hiopt/internal/linexpr"
)

// buildBudgetProblem is a small binary problem whose optimal pool moves
// with the budget row's RHS: min Σ c_i x_i subject to Σ x_i >= b with a
// Skip-tagged budget row (the shape of the Γ-robust availability row).
func buildBudgetProblem(b float64) *linexpr.Compiled {
	m := linexpr.NewModel()
	costs := []float64{3, 1, 4, 1, 5, 2}
	obj := linexpr.Expr{}
	sum := linexpr.Expr{}
	for _, c := range costs {
		id := m.Binary("")
		obj = obj.PlusTerm(id, c)
		sum = sum.PlusTerm(id, 1)
	}
	m.SetObjective(obj, false)
	m.Add("budget", sum, linexpr.GE, b)
	m.Protect(m.NumConstraints() - 1)
	return m.Compile()
}

// TestSetRowRHSWarmMatchesCold: retargeting the budget row on a live
// warm state must enumerate the same pool as a cold compile at the new
// RHS, across an up-down sweep.
func TestSetRowRHSWarmMatchesCold(t *testing.T) {
	work := buildBudgetProblem(1)
	st := NewState(work, Options{})
	for _, b := range []float64{1, 3, 5, 2, 4} {
		st.SetRowRHS(0, b)
		if got := work.Rows[0].RHS; got != b {
			t.Fatalf("arena RHS %g, want %g", got, b)
		}
		warmPool, warmAgg, err := st.SolvePool(0, 1e-6)
		if err != nil {
			t.Fatalf("warm b=%g: %v", b, err)
		}
		coldPool, coldAgg, err := NewState(buildBudgetProblem(b), Options{}).SolvePool(0, 1e-6)
		if err != nil {
			t.Fatalf("cold b=%g: %v", b, err)
		}
		if warmAgg.Status != coldAgg.Status {
			t.Fatalf("b=%g: status %v warm vs %v cold", b, warmAgg.Status, coldAgg.Status)
		}
		if math.Abs(warmAgg.Objective-coldAgg.Objective) > 1e-9 {
			t.Fatalf("b=%g: objective %g warm vs %g cold", b, warmAgg.Objective, coldAgg.Objective)
		}
		warmKeys := map[string]bool{}
		for _, ps := range warmPool {
			warmKeys[poolKey(ps.X)] = true
		}
		if len(warmKeys) != len(coldPool) {
			t.Fatalf("b=%g: pool size %d warm vs %d cold", b, len(warmKeys), len(coldPool))
		}
		for _, ps := range coldPool {
			if !warmKeys[poolKey(ps.X)] {
				t.Fatalf("b=%g: cold member %v missing from warm pool", b, ps.X)
			}
		}
	}
}

func poolKey(x []float64) string {
	b := make([]byte, len(x))
	for i, v := range x {
		if v > 0.5 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
