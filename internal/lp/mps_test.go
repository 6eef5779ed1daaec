package lp_test

import (
	"bytes"
	"math"
	"testing"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/milp"
)

// sameCompiled asserts structural equality of two compiled problems:
// names, bounds, integrality, objective, and every row coefficient
// bit-for-bit (the MPS writer emits 17 significant digits).
func sameCompiled(t *testing.T, want, got *linexpr.Compiled) {
	t.Helper()
	if got.NumVars != want.NumVars {
		t.Fatalf("NumVars %d, want %d", got.NumVars, want.NumVars)
	}
	if got.Negated != want.Negated {
		t.Fatalf("Negated %v, want %v", got.Negated, want.Negated)
	}
	if got.ObjConst != want.ObjConst {
		t.Fatalf("ObjConst %g, want %g", got.ObjConst, want.ObjConst)
	}
	for j := 0; j < want.NumVars; j++ {
		if got.Names[j] != want.Names[j] {
			t.Fatalf("var %d name %q, want %q", j, got.Names[j], want.Names[j])
		}
		if got.Integer[j] != want.Integer[j] {
			t.Fatalf("var %q integer %v, want %v", want.Names[j], got.Integer[j], want.Integer[j])
		}
		if got.Obj[j] != want.Obj[j] {
			t.Fatalf("var %q obj %g, want %g", want.Names[j], got.Obj[j], want.Obj[j])
		}
		if got.Lo[j] != want.Lo[j] || got.Hi[j] != want.Hi[j] {
			t.Fatalf("var %q bounds [%g,%g], want [%g,%g]",
				want.Names[j], got.Lo[j], got.Hi[j], want.Lo[j], want.Hi[j])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		wr, gr := want.Rows[i], got.Rows[i]
		if gr.Name != wr.Name || gr.Sense != wr.Sense || gr.RHS != wr.RHS {
			t.Fatalf("row %d header (%q,%v,%g), want (%q,%v,%g)",
				i, gr.Name, gr.Sense, gr.RHS, wr.Name, wr.Sense, wr.RHS)
		}
		for j := range wr.Coefs {
			if gr.Coefs[j] != wr.Coefs[j] {
				t.Fatalf("row %q coef %d = %g, want %g", wr.Name, j, gr.Coefs[j], wr.Coefs[j])
			}
		}
	}
}

func roundTrip(t *testing.T, c *linexpr.Compiled, name string) *linexpr.Compiled {
	t.Helper()
	var buf bytes.Buffer
	if err := lp.WriteMPS(&buf, c, name); err != nil {
		t.Fatal(err)
	}
	got, err := lp.ReadMPS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, c, got)
	return got
}

// TestMPSRoundTripPaperInstance writes and re-reads the §4.1 paper MILP
// and checks the re-read problem solves to the same optimum.
func TestMPSRoundTripPaperInstance(t *testing.T) {
	comp, _, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, comp, "paper41")
	s1, a1, err := milp.NewState(comp.Clone(), milp.Options{}).SolvePool(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	s2, a2, err := milp.NewState(got, milp.Options{}).SolvePool(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Status != a2.Status || math.Abs(a1.Objective-a2.Objective) > 1e-12 {
		t.Fatalf("re-read optimum (%v, %.12g), want (%v, %.12g)", a2.Status, a2.Objective, a1.Status, a1.Objective)
	}
	_ = s1
	_ = s2
}

// TestMPSRoundTripGenInstance round-trips the scaled M=40 generator
// instance used by the kernel benchmarks.
func TestMPSRoundTripGenInstance(t *testing.T) {
	roundTrip(t, milp.GenInstance(40, 1), "gen40")
}

// TestMPSBoundEdgeCases exercises free, negative-upper, fixed, and
// maximization encodings that the paper instance never produces.
func TestMPSBoundEdgeCases(t *testing.T) {
	m := linexpr.NewModel()
	x := m.NewVar("x", linexpr.Continuous, -3, 7)
	y := m.NewVar("y", linexpr.Continuous, math.Inf(-1), math.Inf(1)) // free
	z := m.NewVar("z", linexpr.Continuous, 2, 2)                      // fixed
	w := m.Binary("w")
	m.Add("c0", linexpr.TermOf(x, 1).PlusTerm(y, -2).PlusTerm(z, 0.5), linexpr.LE, 4)
	m.Add("c1", linexpr.TermOf(w, 3).PlusTerm(y, 1), linexpr.GE, -1)
	m.SetObjective(linexpr.TermOf(x, 1.25).PlusTerm(w, -2).Plus(linexpr.NewExpr(3)), true)
	roundTrip(t, m.Compile(), "edges")
}
