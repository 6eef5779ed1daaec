package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"hiopt/internal/design"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// fastProblem returns a reduced-fidelity paper problem for cheap tests.
func fastProblem(pdrMin float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = 20
	pr.Runs = 1
	return pr
}

func TestBuildMILPFirstPoolIsCheapestClass(t *testing.T) {
	pr := fastProblem(0.9)
	mm, err := buildMILP(pr)
	if err != nil {
		t.Fatal(err)
	}
	pool, agg, err := milp.NewState(mm.model.Compile(), milp.Options{}).SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Status != milp.Optimal {
		t.Fatalf("status = %v", agg.Status)
	}
	// The cheapest power class: N=4 star at the lowest Tx mode. Every
	// pool member must decode to it, and MAC must take both values across
	// the pool (it has no power cost).
	wantPower := pr.AnalyticPower(design.Point{
		Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5, TxMode: 0, Routing: netsim.Star})
	macs := map[netsim.MACKind]bool{}
	topos := map[uint16]bool{}
	for _, ps := range pool {
		p := mm.decode(ps.X)
		if p.Routing != netsim.Star || p.TxMode != 0 || p.N() != 4 {
			t.Errorf("pool member %v is not a 4-node star at lowest power", p)
		}
		if math.Abs(pr.AnalyticPower(p)-wantPower) > 1e-9 {
			t.Errorf("pool member %v analytic power %v != %v", p, pr.AnalyticPower(p), wantPower)
		}
		if math.Abs(ps.Objective-wantPower) > 1e-6 {
			t.Errorf("MILP objective %v != analytic %v", ps.Objective, wantPower)
		}
		macs[p.MAC] = true
		topos[p.Topology] = true
	}
	// 8 four-node topologies × 2 MACs.
	if len(pool) != 16 {
		t.Errorf("pool size = %d, want 16", len(pool))
	}
	if !macs[netsim.CSMA] || !macs[netsim.TDMA] {
		t.Error("pool missing a MAC setting")
	}
	if len(topos) != 8 {
		t.Errorf("pool covers %d topologies, want 8", len(topos))
	}
}

func TestMILPObjectiveMatchesAnalyticEverywhere(t *testing.T) {
	// Pin every decision to each feasible design point via equality rows
	// and check the linearized objective equals Eq. (9).
	pr := fastProblem(0.9)
	pts := pr.Points()
	// Subsample for speed: every 37th point still covers all classes.
	for i := 0; i < len(pts); i += 37 {
		p := pts[i]
		mm, err := buildMILP(pr)
		if err != nil {
			t.Fatal(err)
		}
		m := mm.model
		for loc, id := range mm.nVars {
			v := 0.0
			if p.Uses(loc) {
				v = 1
			}
			m.Add("", linexpr.TermOf(id, 1), linexpr.EQ, v)
		}
		for k, id := range mm.pVars {
			v := 0.0
			if k == p.TxMode {
				v = 1
			}
			m.Add("", linexpr.TermOf(id, 1), linexpr.EQ, v)
		}
		mv := 0.0
		if p.MAC == netsim.TDMA {
			mv = 1
		}
		m.Add("", linexpr.TermOf(mm.macVar, 1), linexpr.EQ, mv)
		rv := 0.0
		if p.Routing == netsim.Mesh {
			rv = 1
		}
		m.Add("", linexpr.TermOf(mm.rtVar, 1), linexpr.EQ, rv)

		s, err := milp.NewState(m.Compile(), milp.Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != milp.Optimal {
			t.Fatalf("point %v: pinned MILP %v", p, s.Status)
		}
		if got := mm.decode(s.X); got != p {
			t.Fatalf("decode mismatch: got %v, want %v", got, p)
		}
		if err := mm.checkExactness(pr, s.X); err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
		if math.Abs(s.Objective-pr.AnalyticPower(p)) > 1e-6 {
			t.Fatalf("point %v: MILP %v != analytic %v", p, s.Objective, pr.AnalyticPower(p))
		}
	}
}

func TestBuildMILPHonorsImplications(t *testing.T) {
	// The paper's example constraint "location i must be used if location
	// j is used" (n_j − n_i ≤ 0): require the back (9) whenever the head
	// (8) is used. Every MILP pool member must satisfy it.
	pr := fastProblem(0.9)
	pr.Constraints.Implications = [][2]int{{9, 8}}
	// Force the head into the topology so the implication bites.
	pr.Constraints.Fixed = append(pr.Constraints.Fixed, 8)
	mm, err := buildMILP(pr)
	if err != nil {
		t.Fatal(err)
	}
	pool, agg, err := milp.NewState(mm.model.Compile(), milp.Options{}).SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Status != milp.Optimal || len(pool) == 0 {
		t.Fatalf("status %v, pool %d", agg.Status, len(pool))
	}
	for _, ps := range pool {
		p := mm.decode(ps.X)
		if p.Uses(8) && !p.Uses(9) {
			t.Errorf("pool member %v violates the head→back implication", p)
		}
		if !p.Uses(8) {
			t.Errorf("pool member %v missing the fixed head node", p)
		}
	}
}

func TestWriteRelaxationLP(t *testing.T) {
	var b strings.Builder
	if err := WriteRelaxationLP(fastProblem(0.9), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Minimize", "fixed_n0", "one_tx_mode", "Binaries", "End"} {
		if !strings.Contains(out, want) {
			t.Errorf("relaxation LP missing %q", want)
		}
	}
}

func TestFirstPoolMatchesOptimizerFirstIteration(t *testing.T) {
	pr := fastProblem(0.9)
	pool, err := FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 16 {
		t.Fatalf("first pool size = %d, want 16", len(pool))
	}
	for _, p := range pool {
		if !pr.Constraints.Satisfied(p.Topology) {
			t.Errorf("pool point %v violates topology constraints", p)
		}
	}
}

func TestBuildMILPRejectsWideMask(t *testing.T) {
	pr := fastProblem(0.9)
	pr.Constraints.M = 17
	if _, err := buildMILP(pr); err == nil {
		t.Error("buildMILP accepted M > 16")
	}
}

func TestOptimizerFindsFeasibleOptimum(t *testing.T) {
	pr := fastProblem(0.5)
	opt := NewOptimizer(pr, Options{})
	out, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Optimal || out.Best == nil {
		t.Fatalf("status = %v", out.Status)
	}
	if !out.Best.Feasible || out.Best.PDR < pr.PDRMin-design.FeasTol {
		t.Errorf("best is not feasible: %+v", out.Best)
	}
	// The incumbent must be the minimum simulated power over all feasible
	// candidates the search saw.
	for _, it := range out.Iterations {
		for _, c := range it.Candidates {
			if c.Feasible && c.PowerMW < out.Best.PowerMW-1e-12 {
				t.Errorf("feasible candidate %v beats reported best", c.Point)
			}
		}
	}
	if out.Evaluations == 0 || out.Simulations < out.Evaluations {
		t.Errorf("bogus counters: %+v", out)
	}
}

func TestOptimizerIterationsHaveIncreasingPower(t *testing.T) {
	pr := fastProblem(0.9)
	out, err := NewOptimizer(pr, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.Iterations); i++ {
		if out.Iterations[i].PBarStar <= out.Iterations[i-1].PBarStar {
			t.Errorf("P̄* not increasing: iter %d %v <= iter %d %v",
				i, out.Iterations[i].PBarStar, i-1, out.Iterations[i-1].PBarStar)
		}
	}
	// Candidates within an iteration share the analytic power class.
	for _, it := range out.Iterations {
		for _, c := range it.Candidates {
			if math.Abs(c.AnalyticMW-it.PBarStar) > 1e-6 {
				t.Errorf("candidate %v analytic %v != class %v", c.Point, c.AnalyticMW, it.PBarStar)
			}
		}
	}
}

func TestOptimizerDeterminism(t *testing.T) {
	run := func() *Outcome {
		out, err := NewOptimizer(fastProblem(0.7), Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Best.Point != b.Best.Point || a.Evaluations != b.Evaluations ||
		math.Abs(a.Best.PowerMW-b.Best.PowerMW) > 1e-12 {
		t.Errorf("optimizer not deterministic: %+v vs %+v", a.Best, b.Best)
	}
}

func TestOptimizerInfeasibleConstraints(t *testing.T) {
	pr := fastProblem(0.5)
	pr.Constraints.MinNodes = 7 // contradicts MaxNodes = 6
	out, err := NewOptimizer(pr, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != Infeasible || out.Best != nil {
		t.Fatalf("want infeasible, got %v", out.Status)
	}
	if out.Evaluations != 0 {
		t.Errorf("infeasible MILP still ran %d evaluations", out.Evaluations)
	}
}

func TestOptimizerPoolLimit(t *testing.T) {
	pr := fastProblem(0.5)
	out, err := NewOptimizer(pr, Options{PoolLimit: 4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range out.Iterations {
		if len(it.Candidates) > 4 {
			t.Errorf("iteration %d pool %d exceeds limit", i, len(it.Candidates))
		}
	}
	if out.Status != Optimal {
		t.Errorf("pool-limited run failed: %v", out.Status)
	}
}

func TestAlphaBoundSavesWork(t *testing.T) {
	// Restrict to 4-node topologies so the exhaustion path (α bound off)
	// stays cheap: 6 power classes instead of 15.
	smallProblem := func() *design.Problem {
		pr := fastProblem(0.5)
		pr.Constraints.MaxNodes = 4
		return pr
	}
	with, err := NewOptimizer(smallProblem(), Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewOptimizer(smallProblem(), Options{DisableAlphaBound: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !with.TerminatedByAlpha {
		t.Error("α bound never triggered at PDRmin=50%")
	}
	if without.TerminatedByAlpha {
		t.Error("disabled α bound reported as triggered")
	}
	if without.Evaluations <= with.Evaluations {
		t.Errorf("α bound saved nothing: %d vs %d evaluations", with.Evaluations, without.Evaluations)
	}
	// Both must agree on the optimum's power class (same analytic class).
	if math.Abs(with.Best.AnalyticMW-without.Best.AnalyticMW) > 1e-9 {
		t.Errorf("ablation changed the optimum class: %v vs %v", with.Best.AnalyticMW, without.Best.AnalyticMW)
	}
}

func TestAlphaValue(t *testing.T) {
	pr := fastProblem(0.5)
	o := NewOptimizer(pr, Options{})
	star := design.Point{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5, TxMode: 1, Routing: netsim.Star}
	a := o.alpha(star)
	// α = P̄/P̄lb = (Pbl + s(tx+2(N-1)rx)) / (Pbl + s(tx + 0.5·2(N-1)rx)).
	s := pr.RatePPS * pr.Tpkt()
	want := (0.1 + s*(11.56+106.2)) / (0.1 + s*(11.56+0.5*106.2))
	if math.Abs(a-want) > 1e-9 {
		t.Errorf("alpha = %v, want %v", a, want)
	}
	if a <= 1 {
		t.Errorf("alpha = %v, must exceed 1 for PDRmin < 1", a)
	}
	// At PDRmin = 1 the correction vanishes.
	pr2 := fastProblem(1.0)
	o2 := NewOptimizer(pr2, Options{})
	if got := o2.alpha(star); math.Abs(got-1) > 1e-12 {
		t.Errorf("alpha at PDRmin=1 is %v, want 1", got)
	}
}

func TestCacheAvoidsResimulation(t *testing.T) {
	pr := fastProblem(0.5)
	o := NewOptimizer(pr, Options{})
	pts := []design.Point{
		{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5, TxMode: 0, Routing: netsim.Star},
		{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<5, TxMode: 0, Routing: netsim.Star},
	}
	res, stats, err := o.simulateAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].res != res[1].res {
		t.Error("duplicate points returned distinct results")
	}
	if stats.runs != 1*pr.Runs {
		t.Errorf("runs = %d, want %d (second point cached)", stats.runs, pr.Runs)
	}
	if stats.seconds != pr.Duration*float64(pr.Runs) {
		t.Errorf("seconds = %v, want %v", stats.seconds, pr.Duration*float64(pr.Runs))
	}
	// A later call with the same point must be free.
	_, stats2, err := o.simulateAll(context.Background(), pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if stats2.runs != 0 {
		t.Errorf("cached re-evaluation ran %d sims", stats2.runs)
	}
}

func TestTwoStageScreensOutInfeasible(t *testing.T) {
	// At PDRmin=90%, the −20 dBm star classes (PDR ≈ 35%) must be
	// screened out by the cheap pass; the answer must match the
	// single-stage run's power class.
	single, err := NewOptimizer(fastProblem(0.9), Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewOptimizer(fastProblem(0.9), Options{TwoStage: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if two.ScreenedOut == 0 {
		t.Error("two-stage run screened nothing out at PDRmin=90%")
	}
	if two.Best == nil || single.Best == nil {
		t.Fatal("missing results")
	}
	if two.Best.AnalyticMW != single.Best.AnalyticMW {
		t.Errorf("two-stage changed the optimum class: %v vs %v",
			two.Best.AnalyticMW, single.Best.AnalyticMW)
	}
	if two.SimulatedSeconds >= single.SimulatedSeconds {
		t.Errorf("two-stage did not reduce simulated time: %v vs %v seconds",
			two.SimulatedSeconds, single.SimulatedSeconds)
	}
}

func TestSimulatedSecondsAccounting(t *testing.T) {
	pr := fastProblem(0.5)
	out, err := NewOptimizer(pr, Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(out.Simulations) * pr.Duration
	if out.SimulatedSeconds != want {
		t.Errorf("SimulatedSeconds = %v, want runs×duration = %v", out.SimulatedSeconds, want)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Error("Status strings")
	}
}
