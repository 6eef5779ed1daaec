package microbench

import (
	"fmt"
	"runtime"
	"testing"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp/presolve"
	"hiopt/internal/milp"
)

// PoolSolve enumerates the optimal pool of the problem it was built for,
// as that problem's rows stand at the call.
type PoolSolve func() ([]milp.PoolSolution, *milp.Solution, error)

// warmPool builds the production solver: one persistent milp.State with
// opt, re-solved warm across the chain's prune cuts.
func warmPool(opt milp.Options) func(*linexpr.Compiled) PoolSolve {
	return func(work *linexpr.Compiled) PoolSolve {
		st := milp.NewState(work, opt)
		return func() ([]milp.PoolSolution, *milp.Solution, error) { return st.SolvePool(0, 1e-6) }
	}
}

// poolChain drives the first three Algorithm 1 oracle iterations —
// SolvePool, prune cut, SolvePool — on the paper problem's MILP with the
// solver newSolve builds, and returns the total simplex pivots,
// branch-and-bound nodes and parallel subtree dives.
func poolChain(b *testing.B, newSolve func(*linexpr.Compiled) PoolSolve) (pivots, nodes, dives int) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	solve := newSolve(work)
	for iter := 0; iter < 3; iter++ {
		pool, agg, err := solve()
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("iter %d: status %v, %d members", iter, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
		dives += agg.ParallelDives
		work.AddExprRow(fmt.Sprintf("prune_%d", iter), obj, linexpr.GE, agg.Objective+1e-4)
	}
	return pivots, nodes, dives
}

// MILPPool measures the pooled-MILP chain of Algorithm 1's first three
// iterations with the solver newSolve builds. The milp_pool entry runs it
// on the persistent warm state (dual-simplex re-solves, bound-diff nodes,
// live no-good cuts); bench_test.go runs the same chain on the test-only
// clone-based oracle, so the two pivots/op figures compare directly.
func MILPPool(b *testing.B, newSolve func(*linexpr.Compiled) PoolSolve) {
	b.ReportAllocs()
	var pivots, nodes int
	for i := 0; i < b.N; i++ {
		p, n, _ := poolChain(b, newSolve)
		pivots += p
		nodes += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// milpParallelBB is the warm pool chain with B&B subtree dives fanned
// across GOMAXPROCS workers. The enumerated pools are bit-identical to the
// sequential ones; ns/op vs milp_pool is the recorded payoff (or cost) of
// the fan-out on M=10-sized trees.
func milpParallelBB(b *testing.B) {
	b.ReportAllocs()
	newSolve := warmPool(milp.Options{Workers: runtime.GOMAXPROCS(0)})
	var dives, nodes int
	for i := 0; i < b.N; i++ {
		_, n, d := poolChain(b, newSolve)
		dives += d
		nodes += n
	}
	b.ReportMetric(float64(dives)/float64(b.N), "dives/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// genM40Pool is the kernel-scaling workload shared by milp_sparse_pool
// (the warm-state default kernel) and milp_dense_m40 (DenseLP, the
// baseline of the sparse kernel's >=2x per-pivot claim): one full
// SolvePool on the committed M=40 generator instance (318 vars, ~730
// rows). Dividing ns/op by pivots/op gives the per-pivot cost of each
// kernel at a size where the dense tableau's O(rows x cols) pivot update
// dominates.
func genM40Pool(b *testing.B, opt milp.Options) {
	b.ReportAllocs()
	base := milp.GenInstance(40, 1)
	var pivots int
	for i := 0; i < b.N; i++ {
		pool, agg, err := milp.NewState(base.Clone(), opt).SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("status %v, %d members", agg.Status, len(pool))
		}
		pivots += agg.LPIterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// milpPresolve runs one Analyze+Apply presolve pass over the M=40
// instance per op. On this instance the fixpoint fixes the over-budget
// count indicators and cascades through their product linearizations
// (~140 vars), drops the spent budget row, and tightens the conflict
// rows.
func milpPresolve(b *testing.B) {
	b.ReportAllocs()
	base := milp.GenInstance(40, 1)
	var fixed, dropped, tightened int
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		st := presolve.Analyze(p).Apply(p)
		fixed += st.FixedVars
		dropped += st.DroppedRows
		tightened += st.TightenedCoefs
	}
	b.ReportMetric(float64(fixed)/float64(b.N), "fixed/op")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
	b.ReportMetric(float64(tightened)/float64(b.N), "tightened/op")
}

// retargetSweep measures one sweep of the paper problem's relaxation over
// values, pooling at each. compile builds the relaxation at one value
// together with its handle's retarget function. Warm compiles once at
// values[0] and moves one persistent state with retarget (a single
// right-hand-side mutation, dual-simplex re-solve from the incumbent
// basis); cold compiles the relaxation and builds a fresh state at every
// value, like a sweep without the handle would. pivots/op warm vs cold is
// the recorded payoff of right-hand-side retargeting.
func retargetSweep(b *testing.B, warm bool, values []float64,
	compile func(pr *design.Problem, v float64) (*linexpr.Compiled, func(*milp.State, float64) error, error)) {
	b.ReportAllocs()
	var st *milp.State
	var retarget func(*milp.State, float64) error
	if warm {
		work, rt, err := compile(design.PaperProblem(0.9), values[0])
		if err != nil {
			b.Fatal(err)
		}
		st, retarget = milp.NewState(work, milp.Options{}), rt
	}
	var pivots, nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := design.PaperProblem(0.9)
		for _, v := range values {
			solver := st
			if warm {
				if err := retarget(st, v); err != nil {
					b.Fatal(err)
				}
			} else {
				work, _, err := compile(pr, v)
				if err != nil {
					b.Fatal(err)
				}
				solver = milp.NewState(work, milp.Options{})
			}
			pool, agg, err := solver.SolvePool(0, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			if agg.Status != milp.Optimal || len(pool) == 0 {
				b.Fatalf("at %g: status %v, %d members", v, agg.Status, len(pool))
			}
			pivots += agg.LPIterations
			nodes += agg.Nodes
		}
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// gammaSweep is the Γ = 1 → 2 → 3 robustness price-curve sweep — the
// oracle workload behind hisweep -gamma and the Γ-propose optimizer —
// over the Γ-robust relaxation at the attainable 0.6 floor (every Γ in
// the sweep is feasible within MaxNodes: the availability row demands
// N >= Γ·0.75/0.4, i.e. N >= 2, 4, 6). Warm moves Γ with RetargetGamma.
func gammaSweep(b *testing.B, warm bool) {
	retargetSweep(b, warm, []float64{1, 2, 3}, func(pr *design.Problem, gamma float64) (*linexpr.Compiled, func(*milp.State, float64) error, error) {
		work, _, h, err := core.CompileMILPRobust(pr, core.RobustCompile{Gamma: gamma, PDRFloor: 0.6})
		if err != nil {
			return nil, nil, err
		}
		return work, h.RetargetGamma, nil
	})
}

// paretoFront is the 16-point ε-constraint front enumeration — the
// MILP-layer core of hisweep -pareto vs its -paretocold baseline — over
// the Γ = 1 protected relaxation at the attainable 0.6 robust floor. The
// ε grid runs 0.60 → 0.87 in steps of 0.018, crossing the Γ = 1
// node-count ceilings (n − 0.75)/n at 0.8125 (n = 4), 0.85 (n = 5), and
// 0.875 (n = 6), so the sweep repeatedly changes which power classes the
// floor row prunes. Warm moves the floor with ParetoHandle.Retarget.
func paretoFront(b *testing.B, warm bool) {
	bounds := make([]float64, 16)
	for i := range bounds {
		bounds[i] = 0.60 + 0.018*float64(i)
	}
	retargetSweep(b, warm, bounds, func(pr *design.Problem, eps float64) (*linexpr.Compiled, func(*milp.State, float64) error, error) {
		work, _, h, err := core.CompileMILPPareto(pr, core.RobustCompile{Gamma: 1, PDRFloor: 0.6}, eps)
		if err != nil {
			return nil, nil, err
		}
		return work, func(st *milp.State, eps float64) error { h.Retarget(st, eps); return nil }, nil
	})
	b.ReportMetric(float64(len(bounds))/(b.Elapsed().Seconds()/float64(b.N)), "points/sec")
}
