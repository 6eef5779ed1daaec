package milp_test

// Differential tests of the warm State against the clone-based reference
// solver in internal/milp/oracle. They live in the external test package
// because the oracle itself imports milp.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/milp/oracle"
	"hiopt/internal/rng"
)

// randomBinaryMILP builds a random pure-binary instance; maximize flips
// the direction so the Negated handling is exercised.
func randomBinaryMILP(g *rng.Stream, maximize bool) *linexpr.Compiled {
	n := 3 + g.Intn(6)
	rows := 1 + g.Intn(4)
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, n)
	for i := range ids {
		ids[i] = m.Binary("")
	}
	for r := 0; r < rows; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			e = e.PlusTerm(id, float64(g.Intn(11)-5))
		}
		sense := []linexpr.Sense{linexpr.LE, linexpr.GE}[g.Intn(2)]
		m.Add("", e, sense, float64(g.Intn(9)-4))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, float64(g.Intn(21)-10))
	}
	m.SetObjective(obj, maximize)
	return m.Compile()
}

// TestStateSolveMatchesLegacy: the warm bound-diff branch-and-bound must
// agree with the clone-based oracle Solve on status and objective.
func TestStateSolveMatchesLegacy(t *testing.T) {
	g := rng.NewSource(91)
	gen := g.Stream("gen")
	for trial := 0; trial < 120; trial++ {
		c := randomBinaryMILP(gen, trial%3 == 0)
		want, err := oracle.Solve(c, milp.Options{})
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		st := milp.NewState(c.Clone(), milp.Options{})
		got, err := st.Solve()
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v, oracle %v", trial, got.Status, want.Status)
		}
		if want.Status != milp.Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: obj %.12g, oracle %.12g", trial, got.Objective, want.Objective)
		}
		if err := milp.CheckFeasible(c, got.X, 1e-6); err != nil {
			t.Fatalf("trial %d: warm point infeasible: %v", trial, err)
		}
		if got.WarmSolves == 0 && got.Nodes > 1 {
			t.Fatalf("trial %d: no warm solves over %d nodes", trial, got.Nodes)
		}
	}
}

func poolKeys(pool []milp.PoolSolution) []string {
	keys := make([]string, len(pool))
	for i, ps := range pool {
		b := make([]byte, len(ps.X))
		for j, v := range ps.X {
			b[j] = '0'
			if v > 0.5 {
				b[j] = '1'
			}
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// TestStatePoolMatchesLegacyAcrossCuts drives a persistent State through
// the Algorithm 1 shape — SolvePool, append a pruning cut, SolvePool again
// — and checks each round's pool equals the oracle SolvePool's as a
// set, and that every member stays feasible against the shared arena
// (i.e. the no-good retirement protocol leaves no live cut behind).
func TestStatePoolMatchesLegacyAcrossCuts(t *testing.T) {
	g := rng.NewSource(92)
	gen := g.Stream("gen")
	for trial := 0; trial < 40; trial++ {
		pristine := randomBinaryMILP(gen, false)
		arena := pristine.Clone()
		st := milp.NewState(arena, milp.Options{})
		warmPools, coldPools, optRounds := 0, 0, 0
		for round := 0; round < 4; round++ {
			wantPool, wantAgg, err := oracle.SolvePool(pristine, milp.Options{}, 0, 1e-6)
			if err != nil {
				t.Fatalf("trial %d round %d: oracle: %v", trial, round, err)
			}
			gotPool, gotAgg, err := st.SolvePool(0, 1e-6)
			if err != nil {
				t.Fatalf("trial %d round %d: warm: %v", trial, round, err)
			}
			if gotAgg.Status != wantAgg.Status {
				t.Fatalf("trial %d round %d: status %v, oracle %v", trial, round, gotAgg.Status, wantAgg.Status)
			}
			if wantAgg.Status != milp.Optimal {
				break
			}
			optRounds++
			if math.Abs(gotAgg.Objective-wantAgg.Objective) > 1e-9*(1+math.Abs(wantAgg.Objective)) {
				t.Fatalf("trial %d round %d: obj %.12g, oracle %.12g", trial, round, gotAgg.Objective, wantAgg.Objective)
			}
			wk, gk := poolKeys(wantPool), poolKeys(gotPool)
			if len(wk) != len(gk) {
				t.Fatalf("trial %d round %d: pool size %d, oracle %d", trial, round, len(gk), len(wk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Fatalf("trial %d round %d: pool mismatch\n got %v\nwant %v", trial, round, gk, wk)
				}
			}
			// Every member must satisfy the shared arena as the DSE core
			// sees it — protocol rows included.
			for i, ps := range gotPool {
				if err := milp.CheckFeasible(arena, ps.X, 1e-6); err != nil {
					t.Fatalf("trial %d round %d member %d: arena check: %v", trial, round, i, err)
				}
			}
			warmPools += gotAgg.WarmSolves
			coldPools += gotAgg.ColdSolves
			// Append the same pruning cut to both problems, mimicking
			// Update(P̃, P̄ > P̄*): objective must exceed this round's
			// optimum by a margin.
			cut := bestCut(pristine, wantAgg.Objective)
			pristine.AddRow("prune", cut.coefs, linexpr.GE, cut.rhs)
			arena.AddRow("prune", append([]float64(nil), cut.coefs...), linexpr.GE, cut.rhs)
		}
		if optRounds > 0 && warmPools <= coldPools {
			t.Fatalf("trial %d: warm path barely used: warm=%d cold=%d", trial, warmPools, coldPools)
		}
	}
}

type cutRow struct {
	coefs []float64
	rhs   float64
}

func bestCut(p *linexpr.Compiled, objective float64) cutRow {
	if p.Negated {
		objective = -objective // internal minimization sense
	}
	coefs := append([]float64(nil), p.Obj...)
	return cutRow{coefs: coefs, rhs: objective - p.ObjConst + 0.5}
}

// TestParallelPoolAcrossCutChain drives pool calls interleaved with
// caller-appended pruning cuts (the Algorithm 1 pattern) under the
// parallel path, against the clone-based oracle pools.
func TestParallelPoolAcrossCutChain(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		p := milp.RandomPoolMILP(seed+400, 8, 6)
		legacy := p.Clone()
		st := milp.NewState(p, milp.Options{SparseLP: true, Workers: 4})
		for round := 0; round < 3; round++ {
			pool, agg, err := st.SolvePool(0, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			lpool, lagg, err := oracle.SolvePool(legacy, milp.Options{}, 0, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Status != lagg.Status {
				t.Fatalf("seed %d round %d: status %v, legacy %v", seed, round, agg.Status, lagg.Status)
			}
			if agg.Status != milp.Optimal {
				break
			}
			if math.Abs(agg.Objective-lagg.Objective) > 1e-9*(1+math.Abs(lagg.Objective)) {
				t.Fatalf("seed %d round %d: obj %.12g, legacy %.12g", seed, round, agg.Objective, lagg.Objective)
			}
			wk, lk := poolKeys(pool), poolKeys(lpool)
			if len(wk) != len(lk) {
				t.Fatalf("seed %d round %d: pool %d vs legacy %d\nwarm %v\nlegacy %v",
					seed, round, len(wk), len(lk), wk, lk)
			}
			for i := range wk {
				if wk[i] != lk[i] {
					t.Fatalf("seed %d round %d member %d: %s vs %s", seed, round, i, wk[i], lk[i])
				}
			}
			for _, ps := range pool {
				if err := milp.CheckFeasible(p, ps.X, 1e-6); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
			// Prune: require strictly worse objective next round, on both
			// problems identically.
			coefs := make([]float64, p.NumVars)
			copy(coefs, p.Obj)
			obj := agg.Objective
			if p.Negated {
				obj = -obj
			}
			rhs := obj - p.ObjConst + 1e-4
			sense := linexpr.GE
			p.AddRow(fmt.Sprintf("prune_%d", round), coefs, sense, rhs)
			legacy.AddRow(fmt.Sprintf("prune_%d", round), append([]float64(nil), coefs...), sense, rhs)
		}
	}
}
