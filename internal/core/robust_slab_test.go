package core

import (
	"fmt"
	"math"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
)

// TestGammaOneSecondClassSlab pins the Γ = 1 relaxation's degenerate
// second power class: after pruning the first class, the second is a
// 132-member slab (every protected star pinned to tx2, so huge objective
// ties). The dense tableau goes stale twice enumerating it, so the
// State's distress ladder must switch to the sparse kernel — observable
// as KernelSwitches == 1 and Kernel() == SparseKernel afterwards — and
// the sparse kernel must deliver the complete, feasible 132-member slab
// natively, on the warm state. If the member counts, objectives, or the
// switch move, the DESIGN.md §14 contract has changed and the pinned
// hisweep -gamma / hibench -exp gm outputs need re-auditing.
func TestGammaOneSecondClassSlab(t *testing.T) {
	pr := design.PaperProblem(0.9)
	mm, _, err := buildRobustMILP(pr, RobustCompile{Gamma: 1, PDRFloor: 0.83})
	if err != nil {
		t.Fatal(err)
	}
	work := mm.model.Compile()
	st := milp.NewState(work, milp.Options{})
	if st.Kernel() != milp.DenseKernel {
		t.Fatalf("Γ=1 paper problem starts on the %v kernel, want dense (size-based choice)", st.Kernel())
	}

	pool1, agg1, err := st.SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg1.Status != milp.Optimal {
		t.Fatalf("first class: status %v", agg1.Status)
	}
	t.Logf("first class: %d members, obj %.10g, warm=%d cold=%d switches=%d",
		len(pool1), agg1.Objective, agg1.WarmSolves, agg1.ColdSolves, agg1.KernelSwitches)
	if len(pool1) != 72 {
		t.Errorf("first class pool size %d, pinned 72", len(pool1))
	}
	if math.Abs(agg1.Objective-1.34921875) > 1e-9 {
		t.Errorf("first class obj %.10g, pinned 1.34921875", agg1.Objective)
	}
	if agg1.WarmSolves == 0 {
		t.Error("first class recorded no warm solves: it must enumerate on the warm kernel")
	}
	if agg1.KernelSwitches != 0 || st.Kernel() != milp.DenseKernel {
		t.Errorf("first class switched kernels (%d switches, now %v): only the second class is distressed",
			agg1.KernelSwitches, st.Kernel())
	}

	work.AddExprRow("prune_0", mm.objective, linexpr.GE, agg1.Objective+1e-4)
	pool2, agg2, err := st.SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg2.Status != milp.Optimal {
		t.Fatalf("second class: status %v", agg2.Status)
	}
	t.Logf("second class: %d members, obj %.10g, warm=%d cold=%d switches=%d",
		len(pool2), agg2.Objective, agg2.WarmSolves, agg2.ColdSolves, agg2.KernelSwitches)
	if len(pool2) != 132 {
		t.Errorf("second class pool size %d, pinned 132", len(pool2))
	}
	if math.Abs(agg2.Objective-1.62578125) > 1e-9 {
		t.Errorf("second class obj %.10g, pinned 1.62578125", agg2.Objective)
	}
	if agg2.KernelSwitches != 1 || st.Kernel() != milp.SparseKernel {
		t.Errorf("second class: %d kernel switches, now on %v; the degenerate slab must "+
			"switch the state to the sparse kernel exactly once", agg2.KernelSwitches, st.Kernel())
	}
	if agg2.WarmSolves == 0 {
		t.Error("second class recorded no warm solves: it must enumerate on the warm sparse kernel")
	}
	for i, ps := range pool2 {
		if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
			t.Fatalf("second class member %d: %v", i, err)
		}
	}
}

// TestGammaOneLowFloorChain pins the distress ladder's last rung. At the
// attainable 0.6 robust floor (the gamma-smoke configuration) the Γ = 1
// relaxation's second class — the 72 members at 1.34921875 — drives the
// dense kernel stale twice, and the fresh sparse kernel the State then
// switches to goes stale once more on this arena. The call must still
// succeed, on its last rung (every warm Infeasible answer cold-confirmed),
// with the complete class that the clone-based oracle enumerates (checked
// member for member when this pin was set), and the third class must
// follow on the sparse kernel without further switches.
func TestGammaOneLowFloorChain(t *testing.T) {
	pr := design.PaperProblem(0.9)
	mm, _, err := buildRobustMILP(pr, RobustCompile{Gamma: 1, PDRFloor: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	work := mm.model.Compile()
	st := milp.NewState(work, milp.Options{})
	want := []struct {
		members  int
		obj      float64
		switches int
	}{{16, 1.07265625, 0}, {72, 1.34921875, 1}, {132, 1.62578125, 0}}
	for iter, w := range want {
		pool, agg, err := st.SolvePool(0, 1e-6)
		if err != nil {
			t.Fatalf("class %d: %v", iter, err)
		}
		if agg.Status != milp.Optimal || len(pool) != w.members || math.Abs(agg.Objective-w.obj) > 1e-9 {
			t.Fatalf("class %d: %v with %d members at %.10g, pinned %d at %.10g",
				iter, agg.Status, len(pool), agg.Objective, w.members, w.obj)
		}
		if agg.KernelSwitches != w.switches {
			t.Errorf("class %d: %d kernel switches, pinned %d", iter, agg.KernelSwitches, w.switches)
		}
		for i, ps := range pool {
			if err := milp.CheckFeasible(work, ps.X, 1e-6); err != nil {
				t.Fatalf("class %d member %d: %v", iter, i, err)
			}
		}
		work.AddExprRow(fmt.Sprintf("prune_%d", iter), mm.objective, linexpr.GE, agg.Objective+1e-4)
	}
	if st.Kernel() != milp.SparseKernel {
		t.Errorf("chain ended on the %v kernel, want sparse", st.Kernel())
	}
}
