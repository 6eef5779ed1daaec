// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1RadioLibrary   — T1 (Table 1)
//	BenchmarkFig1ChannelMatrix    — F1 (Figure 1 substrate)
//	BenchmarkFig3FeasibleScatter  — F3 (Figure 3)
//	BenchmarkOptimaPerPDRmin      — R1 (§4.2 optima sequence)
//	BenchmarkAlg1VsExhaustive     — R2 (87% simulation reduction)
//	BenchmarkAlg1VsSimAnneal      — R3 (3× vs simulated annealing)
//	BenchmarkAblation*            — A1–A4 (DESIGN.md ablations)
//
// Experiment benchmarks run at a reduced fidelity (T_sim = 20 s, 1 run) so
// the whole suite completes in minutes on one core; the cmd/hibench tool
// reruns the same experiments at any fidelity including the paper's
// 600 s × 3 runs (-paper). Shape metrics (reductions, speedups, spans)
// are attached to the benchmark output via ReportMetric.
//
// Micro-benchmarks at the bottom measure the substrates themselves
// (simplex pivots, MILP pooling, DES event throughput, channel sampling).
package hiopt_test

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/core"
	"hiopt/internal/des"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/experiments"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/milp"
	"hiopt/internal/milp/oracle"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/radio"
	"hiopt/internal/rng"
)

// benchFid is the reduced fidelity used by the experiment benchmarks.
var benchFid = experiments.Fidelity{Duration: 20, Runs: 1, Seed: 1}

// sharedSuite caches the exhaustive sweep and the Algorithm 1 runs across
// the experiment benchmarks, exactly like one cmd/hibench invocation
// does; each benchmark therefore times the *incremental* cost of its
// artifact. Micro-benchmarks below do not use it.
var sharedSuite = experiments.NewSuite(benchFid, io.Discard)

func newSuite() *experiments.Suite { return sharedSuite }

// benchPDRMins is the bound set used by the R-series benchmarks — the
// endpoints and the paper's crossover region.
var benchPDRMins = []float64{0.5, 0.9, 1.0}

// --- T1 ---

func BenchmarkTable1RadioLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lib := radio.Library()
		if lib[0].Name != "TI CC2650" || len(lib[0].TxModes) != 3 {
			b.Fatal("radio library lost the paper's Table 1 entry")
		}
		newSuite().Table1()
	}
}

// --- F1 ---

func BenchmarkFig1ChannelMatrix(b *testing.B) {
	locs := body.Default()
	for i := 0; i < b.N; i++ {
		ch := channel.New(locs, channel.DefaultParams(), rng.NewSource(1))
		if ch.MeanPL(0, 3) < 40 {
			b.Fatal("implausible channel matrix")
		}
	}
}

// --- F3 ---

func BenchmarkFig3FeasibleScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		rows, err := s.Fig3("")
		if err != nil {
			b.Fatal(err)
		}
		minPDR, maxPDR := 1.0, 0.0
		minNLT, maxNLT := math.Inf(1), 0.0
		for _, r := range rows {
			minPDR = math.Min(minPDR, r.PDR)
			maxPDR = math.Max(maxPDR, r.PDR)
			minNLT = math.Min(minNLT, r.NLTDays)
			maxNLT = math.Max(maxNLT, r.NLTDays)
		}
		// Paper shape: PDR spans (almost) the whole range; NLT spans
		// days to a month-plus.
		if minPDR > 0.6 || maxPDR < 0.99 {
			b.Fatalf("PDR span [%v, %v] does not match Fig. 3", minPDR, maxPDR)
		}
		if minNLT > 8 || maxNLT < 28 {
			b.Fatalf("NLT span [%v, %v] days does not match Fig. 3", minNLT, maxNLT)
		}
		b.ReportMetric(float64(len(rows)), "configs")
		b.ReportMetric(minNLT, "minNLT_days")
		b.ReportMetric(maxNLT, "maxNLT_days")
	}
}

// --- R1 ---

func BenchmarkOptimaPerPDRmin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		rows, err := s.R1(benchPDRMins)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: every bound feasible; lifetime non-increasing and
		// power non-decreasing as the bound tightens; the 100% answer is
		// a mesh.
		for j, r := range rows {
			if r.Best == nil {
				b.Fatalf("PDRmin=%v infeasible", r.PDRMin)
			}
			if j > 0 && rows[j].Best.PowerMW < rows[j-1].Best.PowerMW-1e-9 {
				b.Fatalf("optimum power decreased when tightening the bound at %v", r.PDRMin)
			}
		}
		last := rows[len(rows)-1]
		if last.Best.Point.Routing != netsim.Mesh {
			b.Fatalf("PDRmin=100%% selected %v, paper selects a mesh", last.Best.Point)
		}
		first := rows[0]
		if first.Best.Point.Routing != netsim.Star || first.Best.Point.TxMode == 2 {
			b.Fatalf("PDRmin=50%% selected %v, paper selects a low-power star", first.Best.Point)
		}
		b.ReportMetric(first.Best.NLTDays, "NLT50_days")
		b.ReportMetric(last.Best.NLTDays, "NLT100_days")
	}
}

// --- R2 ---

func BenchmarkAlg1VsExhaustive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		res, err := s.R2(benchPDRMins)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: a large mean reduction in simulations (87% in the
		// paper; the band depends on fidelity and the PDRmin mix).
		if res.MeanReduction < 0.5 {
			b.Fatalf("mean reduction %.1f%% too small vs the paper's 87%%", res.MeanReduction*100)
		}
		for _, r := range res.Rows {
			if !r.OptimumMatches {
				b.Logf("note: optimum class differs at PDRmin=%v (noise at bench fidelity)", r.PDRMin)
			}
		}
		b.ReportMetric(res.MeanReduction*100, "reduction_%")
	}
}

// --- R3 ---

func BenchmarkAlg1VsSimAnneal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite()
		res, err := s.R3(benchPDRMins, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: Algorithm 1 converges with fewer simulations than
		// SA needs to reach the same answer quality (paper: ~3×). Our SA
		// baseline is deliberately strong (tuned schedule + caching) and
		// can locally win at the 100% bound where it skips the
		// optimality proof — see EXPERIMENTS.md R3 — so the hard floor
		// here is loose; the mean must still not collapse.
		if res.MeanSpeedup < 0.7 {
			b.Fatalf("mean speedup %.2fx: Algorithm 1 broadly slower than annealing", res.MeanSpeedup)
		}
		if res.MeanSpeedup < 1 {
			b.Logf("note: strong-SA baseline won on this fidelity mix (%.2fx)", res.MeanSpeedup)
		}
		b.ReportMetric(res.MeanSpeedup, "speedup_x")
	}
}

// --- A1–A4 ---

func BenchmarkAblationPoolSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("pool ablation incomplete")
		}
		b.ReportMetric(float64(rows[len(rows)-1].Evaluations), "evals_unlimited")
		b.ReportMetric(float64(rows[0].Evaluations), "evals_pool1")
	}
}

func BenchmarkAblationAlphaBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A2()
		if err != nil {
			b.Fatal(err)
		}
		if res.WithAlpha > res.WithoutAlpha {
			b.Fatalf("α bound increased work: %d vs %d", res.WithAlpha, res.WithoutAlpha)
		}
		b.ReportMetric(float64(res.WithAlpha), "evals_with")
		b.ReportMetric(float64(res.WithoutAlpha), "evals_without")
	}
}

func BenchmarkAblationNhops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A3()
		if err != nil {
			b.Fatal(err)
		}
		// More hops must cost strictly more power.
		for j := 1; j < len(rows); j++ {
			if rows[j].PowerMW <= rows[j-1].PowerMW {
				b.Fatalf("NHops=%d power %v not above NHops=%d power %v",
					rows[j].NHops, rows[j].PowerMW, rows[j-1].NHops, rows[j-1].PowerMW)
			}
		}
		b.ReportMetric(rows[1].PDR*100, "pdr_h2_%")
	}
}

func BenchmarkAblationTDMASlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A4()
		if err != nil {
			b.Fatal(err)
		}
		// The widest slot throttles relay capacity: drops appear and PDR
		// falls well below the 1 ms setting.
		last := rows[len(rows)-1]
		ref := rows[1]
		if last.Drops == 0 || last.PDR >= ref.PDR {
			b.Fatalf("4 ms slots should overflow relay buffers (drops=%d pdr=%v vs %v)",
				last.Drops, last.PDR, ref.PDR)
		}
		b.ReportMetric(float64(last.Drops), "drops_4ms")
	}
}

// --- extension studies (A5–A8, PF) ---

func BenchmarkExtRadioSwap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("radio sweep incomplete")
		}
		// The CC2650's best-in-library RX power must buy the longest
		// lifetime at equal reliability.
		for _, r := range rows[1:] {
			if r.Best != nil && rows[0].Best != nil && r.NLTDays > rows[0].NLTDays {
				b.Fatalf("%s outlived the CC2650 (%v > %v days) despite worse RX power",
					r.Radio, r.NLTDays, rows[0].NLTDays)
			}
		}
	}
}

func BenchmarkExtLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MeanLatency*1000, "csma_star_ms")
		b.ReportMetric(rows[1].MeanLatency*1000, "tdma_star_ms")
	}
}

func BenchmarkExtFailureRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A7()
		if err != nil {
			b.Fatal(err)
		}
		starLoss := rows[0].HealthyPDR - rows[0].FailedPDR
		meshLoss := rows[2].HealthyPDR - rows[2].FailedPDR
		// Robust shape checks (the star-vs-mesh loss *margin* is only a
		// couple of points and drowns in noise at bench fidelity): both
		// failures must hurt, and the surviving mesh must stay more
		// reliable than the surviving star.
		if starLoss <= 0 || meshLoss <= 0 {
			b.Fatalf("failures did not reduce PDR: star %v, mesh %v", starLoss, meshLoss)
		}
		if rows[2].FailedPDR <= rows[0].FailedPDR {
			b.Fatalf("post-failure mesh PDR %v not above post-failure star PDR %v",
				rows[2].FailedPDR, rows[0].FailedPDR)
		}
		b.ReportMetric(starLoss*100, "star_loss_%")
		b.ReportMetric(meshLoss*100, "mesh_loss_%")
	}
}

func BenchmarkExtIdleListening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DutyCycledNLTDays, "duty_days")
		b.ReportMetric(res.IdleListenNLTDays, "idle_days")
	}
}

func BenchmarkExtTwoStageScreening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newSuite().A9()
		if err != nil {
			b.Fatal(err)
		}
		if res.TwoStageSeconds >= res.SingleSeconds {
			b.Fatal("screening saved no simulated time")
		}
		if !res.SameClass {
			b.Log("note: screening changed the optimum class (noise at bench fidelity)")
		}
		b.ReportMetric(100*(1-res.TwoStageSeconds/res.SingleSeconds), "saving_%")
	}
}

func BenchmarkExtCSMAAccessModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A10()
		if err != nil {
			b.Fatal(err)
		}
		// Probabilistic deferral must decorrelate the flood bursts:
		// p-persistent collides distinctly less than greedy 1-persistent.
		if rows[2].Collisions >= rows[1].Collisions {
			b.Fatalf("p-persistent collisions %d not below 1-persistent %d",
				rows[2].Collisions, rows[1].Collisions)
		}
		b.ReportMetric(float64(rows[1].Collisions), "coll_1persist")
		b.ReportMetric(float64(rows[2].Collisions), "coll_ppersist")
	}
}

func BenchmarkExtBufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newSuite().A11()
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		if first.Drops <= last.Drops || first.PDR >= last.PDR {
			b.Fatalf("larger buffers should absorb relay bursts: %+v vs %+v", first, last)
		}
		b.ReportMetric(first.PDR*100, "pdr_cap2_%")
		b.ReportMetric(last.PDR*100, "pdr_cap64_%")
	}
}

func BenchmarkExtParetoFront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The front sweep builds its own optimizer (its point is the
		// shared per-sweep cache), so keep to the cheap bounds here; the
		// 100% bound is exercised by BenchmarkOptimaPerPDRmin.
		front, err := newSuite().PF([]float64{0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(front); j++ {
			if front[j].Best != nil && front[j-1].Best != nil &&
				front[j].Best.NLTDays > front[j-1].Best.NLTDays+1e-9 {
				b.Fatal("Pareto front not monotone")
			}
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkSimplexSolve(b *testing.B) {
	// A representative LP: the root relaxation of the design example's
	// MILP (≈40 variables, ≈70 rows after linearization).
	pr := design.PaperProblem(0.9)
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, 30)
	for i := range ids {
		ids[i] = m.NewVar("", linexpr.Continuous, 0, 10)
	}
	g := rng.NewSource(5).Stream("bench")
	for r := 0; r < 40; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			e = e.PlusTerm(id, g.Uniform(-2, 2))
		}
		m.Add("", e, linexpr.LE, g.Uniform(1, 20))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, g.Uniform(-1, 1))
	}
	m.SetObjective(obj, false)
	c := m.Compile()
	_ = pr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.SolveLP(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMILPPoolFirstClass(b *testing.B) {
	// The MILP oracle call of Algorithm 1's first iteration: enumerate
	// the 16-member cheapest power class.
	pr := design.PaperProblem(0.9)
	for i := 0; i < b.N; i++ {
		out, err := core.FirstPool(pr)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 16 {
			b.Fatalf("pool size %d, want 16", len(out))
		}
	}
}

func BenchmarkDESStarSecond(b *testing.B) {
	// Simulate one second of the 4-node star at full traffic; report
	// event throughput.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 1
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkDESMeshFloodSecond(b *testing.B) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.TDMA, netsim.Mesh, 2)
	cfg.Duration = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Run(cfg, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelSample(b *testing.B) {
	ch := channel.New(body.Default(), channel.DefaultParams(), rng.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.PathLossAt(float64(i)*1e-4, 0, 3)
	}
}

func BenchmarkDESSteadyState(b *testing.B) {
	// A self-rescheduling event chain at 1 kHz: after warm-up every
	// Schedule is served from the kernel's free list, so steady state
	// must report 0 allocs/op (1000 events per op).
	sim := des.New()
	var tick func()
	tick = func() { sim.Schedule(0.001, tick) }
	sim.Schedule(0.001, tick)
	sim.Run(1) // warm-up: populate the event pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 2)
	}
	b.ReportMetric(float64(sim.Processed())/float64(b.N), "events/op")
}

func BenchmarkNetsimOneSecond(b *testing.B) {
	// One simulated second per op of the busiest protocol corner (5-node
	// CSMA mesh), stepped on a single long-lived network so the pooled
	// steady state is visible: 0 allocs/op after warm-up.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.CSMA, netsim.Mesh, 2)
	cfg.Duration = 1 << 20 // effectively unbounded for a stepped run
	n, err := netsim.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	sim := n.Simulator()
	sim.Run(2) // warm-up: fills the event/transmission pools
	start := sim.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 3)
	}
	b.ReportMetric(float64(sim.Processed()-start)/float64(b.N), "events/op")
}

func BenchmarkChannelPathLossAt(b *testing.B) {
	// One transmission's worth of receptions per op: every receiver pair
	// advances to the same instant, exercising the flat pair-index lookup
	// and the shared exp(−Δt/τ) memoization. Must report 0 allocs/op.
	locs := body.Default()
	ch := channel.New(locs, channel.DefaultParams(), rng.NewSource(1))
	var sink phys.DB
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 1e-3
		for j := 1; j < len(locs); j++ {
			sink += ch.PathLossAt(t, 0, j)
		}
	}
	benchSinkDB = sink
}

// benchSinkDB defeats dead-code elimination of the PathLossAt benchmark.
var benchSinkDB phys.DB

func BenchmarkRobustEval(b *testing.B) {
	// One 10-second robust evaluation per op: the 4-node star against its
	// 1-node-failure family (3 scenarios + nominal, common random
	// numbers) on a recycled evaluator — the unit of work the optimizer's
	// robust screening pays per nominally feasible candidate.
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 10
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	ev := netsim.NewEvaluator()
	if _, err := ev.EvaluateRobust(cfg, 1, 1, scenarios); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateRobust(cfg, 1, 1, scenarios); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(scenarios)+1), "sims/op")
}

// engineBatchRequests builds the engine-dispatched equivalent of
// BenchmarkRobustEval's work: the 4-node star's nominal run plus its
// 1-node-failure family, as one batch (keyed for the cache-hit variant).
func engineBatchRequests(keyed bool) []engine.Request {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 10
	scenarios := fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
	reqs := []engine.Request{{Cfg: cfg, Runs: 1, Seed: 1}}
	for _, sc := range scenarios {
		c := cfg
		c.Scenario = sc
		reqs = append(reqs, engine.Request{Cfg: c, Runs: 1, Seed: 1})
	}
	if keyed {
		pk := design.Point{Topology: 1<<0 | 1<<1 | 1<<3 | 1<<6, TxMode: 2,
			MAC: netsim.TDMA, Routing: netsim.Star}.Key()
		reqs[0].Key = engine.PointKey(pk)
		for i, sc := range scenarios {
			reqs[i+1].Key = engine.ScenarioKey(pk, sc.Key())
		}
	}
	return reqs
}

func BenchmarkEngineBatch(b *testing.B) {
	// BenchmarkRobustEval's family dispatched through the evaluation
	// engine's worker pool, uncached (every op simulates afresh): ns/op vs
	// BenchmarkRobustEval is the engine's dispatch overhead, which must
	// stay negligible against the simulation itself.
	eng, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(false)
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "sims/op")
}

func BenchmarkEngineCacheHit(b *testing.B) {
	// The same batch, keyed and pre-warmed: every op resolves from the
	// unified cache without touching a simulator. EvaluateBatchInto with
	// a reused results slice exercises the all-hits fast path — 0
	// allocs/op, pinned by the hibench -cmp allocation gate.
	eng, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(true)
	results := make([]*netsim.Result, len(reqs))
	if err := eng.EvaluateBatchInto(results, reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EvaluateBatchInto(results, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "hits/op")
}

// contendHits hammers the engine's cache-hit path from g goroutines, each
// performing hitsPerWorker single-request lookups over the keyed request
// set with per-goroutine phase offsets (colliding keys, distinct access
// order) — the access pattern of cache-heavy concurrent batches.
func contendHits(b *testing.B, eng *engine.Engine, reqs []engine.Request, g, hitsPerWorker int) {
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < hitsPerWorker; i++ {
				if _, err := eng.Evaluate(reqs[(w+i)%len(reqs)]); err != nil {
					b.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkEngineShardContention(b *testing.B) {
	// GOMAXPROCS goroutines hammering cache hits on the lock-striped
	// cache. The same workload against a single-stripe engine (the old
	// single-mutex layout, NewSharded(…, 1)) is timed before the
	// measured loop; speedup_vs_mutex1 is the contended-hit throughput
	// ratio — ≈1 on a 1-CPU host where goroutines serialize anyway, and
	// growing with cores as stripes stop the lock convoy.
	const hitsPerWorker = 1000
	g := runtime.GOMAXPROCS(0)
	reqs := engineBatchRequests(true)

	m1, err := engine.NewSharded(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m1.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, m1, reqs, g, hitsPerWorker) // warm up the baseline
	t0 := time.Now()
	const baseRounds = 3
	for i := 0; i < baseRounds; i++ {
		contendHits(b, m1, reqs, g, hitsPerWorker)
	}
	base := time.Since(t0).Seconds() / baseRounds

	sharded, err := engine.NewSharded(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sharded.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, sharded, reqs, g, hitsPerWorker)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contendHits(b, sharded, reqs, g, hitsPerWorker)
	}
	b.StopTimer()
	per := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(base/per, "speedup_vs_mutex1")
	b.ReportMetric(float64(g*hitsPerWorker), "hits/op")
	b.ReportMetric(float64(g), "goroutines")
}

func BenchmarkEngineDiskWarm(b *testing.B) {
	// The warm-restart path end to end: a cold engine evaluates the keyed
	// batch once and saves it; every op then builds a fresh engine, loads
	// the cache file, and answers the whole batch from the persisted tier
	// without a single fresh simulation.
	path := filepath.Join(b.TempDir(), "cache.bin")
	sig := engine.ContextSig(10, 1, 1)
	cold, err := engine.New(1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := engineBatchRequests(true)
	if _, err := cold.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := cold.SaveCache(path, sig); err != nil {
		b.Fatal(err)
	}
	results := make([]*netsim.Result, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := engine.New(1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.LoadCache(path, sig); err != nil {
			b.Fatal(err)
		}
		if err := warm.EvaluateBatchInto(results, reqs, nil); err != nil {
			b.Fatal(err)
		}
		if st := warm.Stats(); st.Simulated != 0 || st.DiskHits != int64(len(reqs)) {
			b.Fatalf("disk-warm op simulated %d / %d disk hits, want 0 / %d", st.Simulated, st.DiskHits, len(reqs))
		}
	}
	b.ReportMetric(float64(len(reqs)), "disk_hits/op")
}

// engineRepBatchRequests builds 16 distinct configurations, each
// requesting 8 replications of a 2-second horizon — the workload of the
// replication-granularity scheduler benchmarks.
func engineRepBatchRequests() []engine.Request {
	locSets := [][]int{{0, 1, 3, 6}, {0, 2, 4, 6}, {0, 1, 5, 7}, {0, 3, 6, 9}}
	var reqs []engine.Request
	for _, locs := range locSets {
		for _, m := range []netsim.MACKind{netsim.CSMA, netsim.TDMA} {
			for _, rt := range []netsim.RoutingKind{netsim.Star, netsim.Mesh} {
				cfg := netsim.DefaultConfig(locs, m, rt, 2)
				cfg.Duration = 2
				reqs = append(reqs, engine.Request{Cfg: cfg, Runs: 8, Seed: 1})
			}
		}
	}
	return reqs
}

func BenchmarkEngineRepsParallel(b *testing.B) {
	// 16 points × 8 replications at Workers = GOMAXPROCS, scheduled at
	// replication granularity (each replication is its own sub-task, so a
	// single point's 8 replications spread across the pool). The
	// sequential-replication baseline — one evaluator, replications in
	// seed order — is timed inside the benchmark; speedup_vs_sequential
	// records the wall-clock ratio: ≈1 on a single-core box, approaching
	// min(GOMAXPROCS, reps) with cores.
	reqs := engineRepBatchRequests()
	ev := netsim.NewEvaluator()
	for _, r := range reqs { // warm the allocator before timing the baseline
		if _, err := ev.RunAveraged(r.Cfg, r.Runs, r.Seed); err != nil {
			b.Fatal(err)
		}
	}
	t0 := time.Now()
	for _, r := range reqs {
		if _, err := ev.RunAveraged(r.Cfg, r.Runs, r.Seed); err != nil {
			b.Fatal(err)
		}
	}
	seq := time.Since(t0)
	eng, err := engine.New(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	par := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(seq.Seconds()/par, "speedup_vs_sequential")
	b.ReportMetric(float64(len(reqs)*8), "reps/op")
}

func BenchmarkEngineAdaptiveScreen(b *testing.B) {
	// The screening-style adaptive workload: the same 16 points with the
	// 8×2 s budget split into confidence-gated blocks against a bound
	// every candidate is decisively clear of, so the gate stops most
	// replication budgets early. reps_saved/op and saved_frac record the
	// avoided work (the requests are keyless, so every op simulates
	// afresh — a warm cache would measure nothing).
	reqs := engineRepBatchRequests()
	gate := &netsim.Gate{PDRMin: 0.5, Margin: 0.05, Confidence: 0.9}
	for i := range reqs {
		reqs[i].Adaptive = gate
	}
	eng, err := engine.New(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	start := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := eng.Stats().Sub(start)
	b.ReportMetric(float64(d.RepsSaved)/float64(b.N), "reps_saved/op")
	if total := d.SimSeconds() + d.SavedSeconds; total > 0 {
		b.ReportMetric(d.SavedSeconds/total, "saved_frac")
	}
}

// --- warm MILP kernel ---

// milpPoolChain drives the first three Algorithm 1 oracle iterations —
// SolvePool, prune cut, SolvePool — on the paper problem's MILP, either
// on a persistent warm State or on the clone-based cold oracle, and
// returns total simplex pivots and branch-and-bound nodes.
func milpPoolChain(b *testing.B, warm bool) (pivots, nodes int) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	var st *milp.State
	if warm {
		st = milp.NewState(work, milp.Options{})
	}
	for iter := 0; iter < 3; iter++ {
		var pool []milp.PoolSolution
		var agg *milp.Solution
		var err error
		if warm {
			pool, agg, err = st.SolvePool(0, 1e-6)
		} else {
			pool, agg, err = oracle.SolvePool(work, milp.Options{}, 0, 1e-6)
		}
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("iter %d: status %v, %d members", iter, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
		work.AddExprRow(fmt.Sprintf("prune_%d", iter), obj, linexpr.GE, agg.Objective+1e-4)
	}
	return pivots, nodes
}

// BenchmarkMILPSolvePool measures the full pooled-MILP chain of Algorithm
// 1's first three iterations. The warm sub-benchmark keeps one persistent
// solver state across iterations (dual-simplex re-solves, bound-diff
// nodes, live no-good cuts); cold runs the test-only clone-based oracle
// (internal/milp/oracle), which re-clones and re-solves from scratch. pivots/op is the acceptance metric:
// warm must stay ≥2x below cold.
func BenchmarkMILPSolvePool(b *testing.B) {
	for _, mode := range []struct {
		name string
		warm bool
	}{{"warm", true}, {"cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var pivots, nodes int
			for i := 0; i < b.N; i++ {
				p, n := milpPoolChain(b, mode.warm)
				pivots += p
				nodes += n
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkMILPCutResolve measures the LP unit the warm kernel exists
// for: a pruning cut's right-hand side moves and the paper problem's
// root relaxation re-solves from the incumbent basis instead of from
// scratch. One op is a tighten + re-solve followed by a loosen +
// re-solve, so the solver returns to its starting state every op.
func BenchmarkMILPCutResolve(b *testing.B) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	work.AddExprRow("prune", obj, linexpr.GE, 0) // loose: power is positive
	row := len(work.Rows) - 1
	sv, err := lp.NewSolver(work)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sv.Solve()
	if err != nil || s.Status != lp.Optimal {
		b.Fatalf("root solve: %v %v", s.Status, err)
	}
	tight := s.Objective + 0.01
	s0 := sv.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.SetRowRHS(row, tight)
		if r, err := sv.Solve(); err != nil || r.Status != lp.Optimal {
			b.Fatalf("tight re-solve: %v %v", r.Status, err)
		}
		sv.SetRowRHS(row, 0)
		if r, err := sv.Solve(); err != nil || r.Status != lp.Optimal {
			b.Fatalf("loose re-solve: %v %v", r.Status, err)
		}
	}
	b.StopTimer()
	d := sv.Stats()
	b.ReportMetric(float64(d.Pivots-s0.Pivots)/float64(b.N), "pivots/op")
	if cold := d.ColdSolves - s0.ColdSolves; cold != 0 {
		b.Fatalf("%d cold rebuilds in the warm re-solve loop", cold)
	}
}

func BenchmarkMILPKnapsack(b *testing.B) {
	m := linexpr.NewModel()
	var ids []linexpr.VarID
	weights := []float64{3, 4, 2, 1, 5, 6, 2, 3, 4, 1, 2, 5}
	values := []float64{10, 13, 7, 5, 16, 18, 6, 9, 12, 3, 7, 15}
	e := linexpr.Expr{}
	obj := linexpr.Expr{}
	for i := range weights {
		id := m.Binary("")
		ids = append(ids, id)
		e = e.PlusTerm(id, weights[i])
		obj = obj.PlusTerm(id, values[i])
	}
	m.Add("w", e, linexpr.LE, 15)
	m.SetObjective(obj, true)
	c := m.Compile()
	_ = ids
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := oracle.Solve(c, milp.Options{})
		if err != nil || s.Status != milp.Optimal {
			b.Fatal(err, s.Status)
		}
	}
}

// gammaSweepChain drives one Γ price-curve sweep — the oracle workload
// behind hisweep -gamma — over the Γ-robust relaxation at the attainable
// 0.6 floor (every Γ in the sweep is feasible within MaxNodes: the
// availability row demands N >= Γ·0.75/0.4, i.e. N >= 2, 4, 6). Warm
// keeps one persistent solver state and moves Γ with RetargetGamma (a
// single right-hand-side mutation, dual-simplex re-solve from the
// incumbent basis); cold recompiles the robust relaxation and rebuilds a
// fresh state at every Γ, like a sweep without the handle would.
func gammaSweepChain(b *testing.B, warm bool, st *milp.State, h *core.RobustHandle) (pivots, nodes int) {
	pr := design.PaperProblem(0.9)
	for _, gamma := range []float64{1, 2, 3} {
		var pool []milp.PoolSolution
		var agg *milp.Solution
		var err error
		if warm {
			if err = h.RetargetGamma(st, gamma); err != nil {
				b.Fatal(err)
			}
			pool, agg, err = st.SolvePool(0, 1e-6)
		} else {
			var work *linexpr.Compiled
			work, _, _, err = core.CompileMILPRobust(pr, core.RobustCompile{Gamma: gamma, PDRFloor: 0.6})
			if err != nil {
				b.Fatal(err)
			}
			pool, agg, err = milp.NewState(work, milp.Options{}).SolvePool(0, 1e-6)
		}
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("Γ=%g: status %v, %d members", gamma, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
	}
	return pivots, nodes
}

// BenchmarkMILPGammaSweep measures the Γ = 1 → 2 → 3 robustness
// price-curve sweep. warm is the RetargetGamma path hisweep -gamma and
// the Γ-propose optimizer rely on; cold is the recompile-per-Γ baseline.
// pivots/op warm vs cold is the recorded payoff of right-hand-side
// retargeting across Γ moves.
func BenchmarkMILPGammaSweep(b *testing.B) {
	for _, mode := range []struct {
		name string
		warm bool
	}{{"warm", true}, {"cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var st *milp.State
			var h *core.RobustHandle
			if mode.warm {
				work, _, hh, err := core.CompileMILPRobust(design.PaperProblem(0.9), core.RobustCompile{Gamma: 1, PDRFloor: 0.6})
				if err != nil {
					b.Fatal(err)
				}
				h = hh
				st = milp.NewState(work, milp.Options{})
			}
			var pivots, nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, n := gammaSweepChain(b, mode.warm, st, h)
				pivots += p
				nodes += n
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// paretoFrontBounds is the 16-point ε grid of the front benchmarks:
// 0.60 → 0.87 in steps of 0.018, crossing the Γ = 1 node-count ceilings
// (n − 0.75)/n at 0.8125 (n = 4), 0.85 (n = 5), and 0.875 (n = 6), so
// the sweep repeatedly changes which power classes the floor row prunes.
func paretoFrontBounds() []float64 {
	bounds := make([]float64, 16)
	for i := range bounds {
		bounds[i] = 0.60 + 0.018*float64(i)
	}
	return bounds
}

// paretoFrontChain drives one 16-point ε-constraint front enumeration —
// the MILP-layer workload behind hisweep -pareto — over the Γ = 1
// protected relaxation at the attainable 0.6 robust floor, pooling at
// each bound. Warm moves the floor with ParetoHandle.Retarget on one
// persistent state (a single right-hand-side mutation, dual-simplex
// re-solve); cold recompiles the pareto relaxation and rebuilds a fresh
// state per bound, like hisweep -paretocold.
func paretoFrontChain(b *testing.B, warm bool, st *milp.State, h *core.ParetoHandle) (pivots, nodes int) {
	pr := design.PaperProblem(0.9)
	for _, eps := range paretoFrontBounds() {
		var pool []milp.PoolSolution
		var agg *milp.Solution
		var err error
		if warm {
			h.Retarget(st, eps)
			pool, agg, err = st.SolvePool(0, 1e-6)
		} else {
			var work *linexpr.Compiled
			work, _, _, err = core.CompileMILPPareto(pr, core.RobustCompile{Gamma: 1, PDRFloor: 0.6}, eps)
			if err != nil {
				b.Fatal(err)
			}
			pool, agg, err = milp.NewState(work, milp.Options{}).SolvePool(0, 1e-6)
		}
		if err != nil {
			b.Fatal(err)
		}
		if agg.Status != milp.Optimal || len(pool) == 0 {
			b.Fatalf("ε=%g: status %v, %d members", eps, agg.Status, len(pool))
		}
		pivots += agg.LPIterations
		nodes += agg.Nodes
	}
	return pivots, nodes
}

// BenchmarkMILPParetoFront measures the 16-point ε-constraint front
// enumeration. warm is the Retarget path hisweep -pareto rides (the
// pareto_warm_front entry of BENCH_simcore.json); cold is the
// recompile-per-bound baseline. pivots/op warm vs cold is the recorded
// incremental-re-solve payoff of the warm front.
func BenchmarkMILPParetoFront(b *testing.B) {
	for _, mode := range []struct {
		name string
		warm bool
	}{{"warm", true}, {"cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var st *milp.State
			var h *core.ParetoHandle
			if mode.warm {
				work, _, hh, err := core.CompileMILPPareto(design.PaperProblem(0.9), core.RobustCompile{Gamma: 1, PDRFloor: 0.6}, 0.6)
				if err != nil {
					b.Fatal(err)
				}
				h = hh
				st = milp.NewState(work, milp.Options{})
			}
			points := len(paretoFrontBounds())
			var pivots, nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, n := paretoFrontChain(b, mode.warm, st, h)
				pivots += p
				nodes += n
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(points)/(b.Elapsed().Seconds()/float64(b.N)), "points/sec")
		})
	}
}

// BenchmarkExtParetoSweep measures one warm ε-constraint Pareto sweep —
// the full hisweep -pareto pipeline (warm MILP retargets + record replay
// + shared-cache evaluation) — over an 8-bound grid at 20 s fidelity on
// a fresh engine per op, reporting the front-sharing metrics alongside
// ns/op.
func BenchmarkExtParetoSweep(b *testing.B) {
	bounds := []float64{0.5, 0.56, 0.62, 0.68, 0.74, 0.8, 0.86, 0.92}
	mkProblem := func() *design.Problem {
		pr := design.PaperProblem(0.5)
		pr.Duration = 20
		pr.Runs = 1
		return pr
	}
	if _, err := core.ParetoSweep(mkProblem(), core.SweepOptions{Bounds: bounds}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pivots int
	var fresh float64
	for i := 0; i < b.N; i++ {
		res, err := core.ParetoSweep(mkProblem(), core.SweepOptions{Bounds: bounds})
		if err != nil {
			b.Fatal(err)
		}
		pivots += res.LPIterations
		fresh += res.FreshEvalFrac()
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(fresh/float64(b.N), "fresh_eval_frac")
	b.ReportMetric(float64(len(bounds)), "points/op")
}

// BenchmarkGammaOneSlabLegacyFallback measures the Γ = 1 known-cost
// regression pinned by core's TestGammaOneSecondClassSlab: enumerating
// the degenerate 132-member second power class, where the warm
// single-tree pool trips its stale-twice guard and falls back to the
// legacy clone-based enumeration. The ~tens-of-seconds per op ARE the
// regression being tracked (hisweep -gamma pays this once per sweep) —
// far too slow for BENCH_simcore.json's repeat-3 protocol, so it is
// deliberately absent from hibench -benchjson; run it directly with
// -benchtime 1x when touching the pool enumeration or the Γ lowering.
func BenchmarkGammaOneSlabLegacyFallback(b *testing.B) {
	pr := design.PaperProblem(0.9)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work, obj, _, err := core.CompileMILPRobust(pr, core.RobustCompile{Gamma: 1, PDRFloor: 0.83})
		if err != nil {
			b.Fatal(err)
		}
		st := milp.NewState(work, milp.Options{})
		_, agg1, err := st.SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		work.AddExprRow("prune_0", obj, linexpr.GE, agg1.Objective+1e-4)
		b.StartTimer()
		pool, agg2, err := st.SolvePool(0, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pool) != 132 || agg2.WarmSolves != 0 || agg2.ColdSolves != 0 {
			b.Fatalf("slab shape moved: %d members, warm=%d cold=%d (want 132 via the legacy fallback)",
				len(pool), agg2.WarmSolves, agg2.ColdSolves)
		}
	}
	b.ReportMetric(132, "members/op")
}
