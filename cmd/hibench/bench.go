package main

import (
	"encoding/json"
	"fmt"
	"os"
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
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/lp/presolve"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// benchEntry is one micro-benchmark measurement in the BENCH_simcore.json
// emitted by -benchjson.
type benchEntry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the serialized layout of BENCH_simcore.json: the simulator
// micro-benchmarks (mirroring the Benchmark* functions in bench_test.go)
// plus the wall time of every experiment this invocation ran.
type benchFile struct {
	GeneratedBy       string                `json:"generated_by"`
	Timestamp         string                `json:"timestamp"`
	GoVersion         string                `json:"go_version"`
	GOOS              string                `json:"goos"`
	GOARCH            string                `json:"goarch"`
	Benchmarks        map[string]benchEntry `json:"benchmarks"`
	ExperimentSeconds map[string]float64    `json:"experiment_wall_seconds,omitempty"`
	// Retired names baseline benchmarks deliberately removed from the
	// harness; -cmp lets exactly these go missing from a new run.
	Retired []string `json:"retired,omitempty"`
}

func toEntry(r testing.BenchmarkResult) benchEntry {
	e := benchEntry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		e.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			e.Metrics[k] = v
		}
	}
	return e
}

// benchRepeats is how many times measure runs each benchmark. Recording
// the fastest of three keeps BENCH_simcore.json (and the `make benchcmp`
// gate that diffs against it) stable against transient machine noise —
// the minimum is the classic low-variance estimator for "how fast can
// this code run", and real regressions slow the minimum down too.
const benchRepeats = 3

// measure runs f benchRepeats times and keeps the fastest measurement.
func measure(f func(*testing.B)) benchEntry {
	best := toEntry(testing.Benchmark(f))
	for i := 1; i < benchRepeats; i++ {
		if e := toEntry(testing.Benchmark(f)); e.NsPerOp < best.NsPerOp {
			best = e
		}
	}
	return best
}

// writeBenchJSON measures the simulation-core micro-benchmarks and writes
// them, with the experiment wall times, to path.
func writeBenchJSON(path string, expSeconds map[string]float64) error {
	out := benchFile{
		GeneratedBy: "hibench -benchjson",
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Benchmarks: map[string]benchEntry{
			"des_steady_state":        measure(benchDESSteadyState),
			"netsim_one_second":       measure(benchNetsimOneSecond),
			"channel_pathloss_at":     measure(benchChannelPathLossAt),
			"robust_eval":             measure(benchRobustEval),
			"engine_batch":            measure(benchEngineBatch),
			"engine_cache_hit":        measure(benchEngineCacheHit),
			"engine_reps_parallel":    measure(benchEngineRepsParallel),
			"engine_adaptive_screen":  measure(benchEngineAdaptiveScreen),
			"engine_shard_contention": measure(benchEngineShardContention),
			"engine_disk_warm":        measure(benchEngineDiskWarm),
			"milp_pool":               measure(benchMILPPoolWarm),
			"milp_sparse_pool":        measure(benchMILPSparsePool),
			"milp_dense_m40":          measure(benchMILPDenseM40),
			"milp_presolve":           measure(benchMILPPresolve),
			"milp_parallel_bb":        measure(benchMILPParallelBB),
			"milp_gamma_warm":         measure(benchMILPGammaWarm),
			"milp_gamma_cold":         measure(benchMILPGammaCold),
			"pareto_warm_front":       measure(benchParetoWarmFront),
			"pareto_cold_front":       measure(benchParetoColdFront),
		},
		ExperimentSeconds: expSeconds,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchDESSteadyState mirrors BenchmarkDESSteadyState: a self-rescheduling
// 1 kHz event chain, 1000 events per op, 0 allocs/op in steady state.
func benchDESSteadyState(b *testing.B) {
	sim := des.New()
	var tick func()
	tick = func() { sim.Schedule(0.001, tick) }
	sim.Schedule(0.001, tick)
	sim.Run(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 2)
	}
	b.ReportMetric(float64(sim.Processed())/float64(b.N), "events/op")
}

// benchNetsimOneSecond mirrors BenchmarkNetsimOneSecond: one simulated
// second per op of the 5-node CSMA mesh on a long-lived network.
func benchNetsimOneSecond(b *testing.B) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 5, 7}, netsim.CSMA, netsim.Mesh, 2)
	cfg.Duration = 1 << 20
	n, err := netsim.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	sim := n.Simulator()
	sim.Run(2)
	start := sim.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(float64(i) + 3)
	}
	b.ReportMetric(float64(sim.Processed()-start)/float64(b.N), "events/op")
}

// benchRobustEval mirrors BenchmarkRobustEval: one 10-second robust
// evaluation per op — the 4-node star under its 1-node-failure family
// (3 scenarios + nominal) on a recycled evaluator, the unit of work the
// optimizer's robust screening pays per nominally feasible candidate.
func benchRobustEval(b *testing.B) {
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
// benchRobustEval's work: the 4-node star's nominal run plus its
// 1-node-failure family, as one batch.
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

// benchEngineBatch mirrors BenchmarkEngineBatch: benchRobustEval's robust
// family dispatched through the evaluation engine's worker pool, uncached
// (every op simulates). ns/op vs robust_eval is the engine's dispatch
// overhead.
func benchEngineBatch(b *testing.B) {
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

// benchEngineCacheHit mirrors BenchmarkEngineCacheHit: the same batch,
// keyed and pre-warmed, answered through the EvaluateBatchInto all-hits
// fast path — 0 allocs/op, pinned by the -cmp allocation gate.
func benchEngineCacheHit(b *testing.B) {
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

// contendHits mirrors the root-level helper: g goroutines hammering the
// cache-hit path with phase-offset colliding keys.
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

// benchEngineShardContention mirrors BenchmarkEngineShardContention:
// GOMAXPROCS goroutines of contended cache hits on the lock-striped
// cache, with the single-stripe (old single-mutex) baseline timed inline
// and reported as speedup_vs_mutex1 (≈1 on a 1-CPU host, growing with
// cores).
func benchEngineShardContention(b *testing.B) {
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
	contendHits(b, m1, reqs, g, hitsPerWorker)
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

// benchEngineDiskWarm mirrors BenchmarkEngineDiskWarm: each op builds a
// fresh engine, loads the saved cache file, and answers the whole keyed
// batch from the persisted tier — zero fresh simulations.
func benchEngineDiskWarm(b *testing.B) {
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

// engineRepBatchRequests mirrors the root-level helper: 16 distinct
// configurations, each requesting 8 replications of a 2-second horizon.
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

// benchEngineRepsParallel mirrors BenchmarkEngineRepsParallel: 16 points
// × 8 replications scheduled at replication granularity across
// Workers = GOMAXPROCS, with the sequential-replication wall clock
// measured in-benchmark and reported as speedup_vs_sequential (≈1 on a
// single core, approaching min(GOMAXPROCS, reps) with cores).
func benchEngineRepsParallel(b *testing.B) {
	reqs := engineRepBatchRequests()
	ev := netsim.NewEvaluator()
	for _, r := range reqs {
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

// benchEngineAdaptiveScreen mirrors BenchmarkEngineAdaptiveScreen: the
// same workload confidence-gated against a bound every candidate is
// decisively clear of; reps_saved/op and saved_frac record the avoided
// work.
func benchEngineAdaptiveScreen(b *testing.B) {
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

// benchChannelPathLossAt mirrors BenchmarkChannelPathLossAt: one
// transmission's worth of receptions per op.
func benchChannelPathLossAt(b *testing.B) {
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
	if sink == 0 && b.N > 0 {
		fmt.Fprintln(os.Stderr, "benchChannelPathLossAt: implausible zero path loss sum")
	}
}

// milpPoolChain mirrors the root-level milpPoolChain helper's warm mode:
// the first three Algorithm 1 oracle iterations (SolvePool, prune cut,
// SolvePool) on the paper problem's MILP on one persistent solver state,
// returning total pivots and B&B nodes.
func milpPoolChain(b *testing.B) (pivots, nodes int) {
	work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
	if err != nil {
		b.Fatal(err)
	}
	st := milp.NewState(work, milp.Options{})
	for iter := 0; iter < 3; iter++ {
		pool, agg, err := st.SolvePool(0, 1e-6)
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

// benchMILPPoolWarm mirrors BenchmarkMILPSolvePool/warm: the pooled-MILP
// chain on the persistent warm kernel. Its clone-based cold counterpart
// is the test-only BenchmarkMILPSolvePool/cold.
func benchMILPPoolWarm(b *testing.B) {
	b.ReportAllocs()
	var pivots, nodes int
	for i := 0; i < b.N; i++ {
		p, n := milpPoolChain(b)
		pivots += p
		nodes += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// genM40Pool is the kernel-scaling workload shared by milp_sparse_pool
// and milp_dense_m40: one full SolvePool on the committed M=40 generator
// instance (318 vars, ~730 rows). Dividing ns/op by pivots/op gives the
// per-pivot cost of each kernel at a size where the dense tableau's
// O(rows x cols) pivot update dominates.
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

// benchMILPSparsePool: the M=40 pool solve on the sparse revised-simplex
// kernel (the warm-state default).
func benchMILPSparsePool(b *testing.B) { genM40Pool(b, milp.Options{}) }

// benchMILPDenseM40: the same M=40 pool solve on the dense tableau
// kernel — the baseline the sparse kernel's >=2x per-pivot claim is
// measured against.
func benchMILPDenseM40(b *testing.B) { genM40Pool(b, milp.Options{DenseLP: true}) }

// benchMILPPresolve: one Analyze+Apply presolve pass over the M=40
// instance per op. On this instance the fixpoint fixes the over-budget
// count indicators and cascades through their product linearizations
// (~140 vars), drops the spent budget row, and tightens the conflict
// rows.
func benchMILPPresolve(b *testing.B) {
	b.ReportAllocs()
	base := milp.GenInstance(40, 1)
	var fixed, dropped, tightened int
	for i := 0; i < b.N; i++ {
		p := base.Clone()
		red := presolve.Analyze(p)
		st := red.Apply(p)
		fixed += st.FixedVars
		dropped += st.DroppedRows
		tightened += st.TightenedCoefs
	}
	b.ReportMetric(float64(fixed)/float64(b.N), "fixed/op")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
	b.ReportMetric(float64(tightened)/float64(b.N), "tightened/op")
}

// benchMILPParallelBB: the paper-instance warm pool chain with B&B
// subtree dives fanned across GOMAXPROCS workers. The enumerated pools
// are bit-identical to the sequential ones; ns/op vs milp_pool is the
// recorded payoff (or cost) of the fan-out on M=10-sized trees.
func benchMILPParallelBB(b *testing.B) {
	b.ReportAllocs()
	var dives, nodes int
	for i := 0; i < b.N; i++ {
		work, obj, err := core.CompileMILP(design.PaperProblem(0.9))
		if err != nil {
			b.Fatal(err)
		}
		st := milp.NewState(work, milp.Options{Workers: runtime.GOMAXPROCS(0)})
		for iter := 0; iter < 3; iter++ {
			pool, agg, err := st.SolvePool(0, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			if agg.Status != milp.Optimal || len(pool) == 0 {
				b.Fatalf("iter %d: status %v, %d members", iter, agg.Status, len(pool))
			}
			dives += agg.ParallelDives
			nodes += agg.Nodes
			work.AddExprRow(fmt.Sprintf("prune_%d", iter), obj, linexpr.GE, agg.Objective+1e-4)
		}
	}
	b.ReportMetric(float64(dives)/float64(b.N), "dives/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// gammaSweepChain mirrors the root-level helper: one Γ = 1 → 2 → 3
// price-curve sweep over the Γ-robust relaxation at the attainable 0.6
// floor, pooling at each budget. Warm moves Γ with RetargetGamma on one
// persistent state (a single right-hand-side mutation); cold recompiles
// the robust relaxation and rebuilds a fresh state per Γ.
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

// benchMILPGammaWarm mirrors BenchmarkMILPGammaSweep/warm: the
// RetargetGamma path hisweep -gamma and the Γ-propose optimizer rely
// on. pivots/op vs milp_gamma_cold is the recorded payoff of
// right-hand-side retargeting across Γ moves.
func benchMILPGammaWarm(b *testing.B) { benchMILPGamma(b, true) }

// benchMILPGammaCold mirrors BenchmarkMILPGammaSweep/cold: the
// recompile-per-Γ baseline.
func benchMILPGammaCold(b *testing.B) { benchMILPGamma(b, false) }

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

// paretoFrontChain mirrors the root-level helper: one 16-point
// ε-constraint front enumeration over the Γ = 1 protected relaxation at
// the attainable 0.6 robust floor, pooling at each bound. Warm moves the
// floor with ParetoHandle.Retarget on one persistent state (a single
// right-hand-side mutation, dual-simplex re-solve); cold recompiles the
// pareto relaxation and rebuilds a fresh state per bound — the MILP-layer
// core of hisweep -pareto vs its -paretocold baseline.
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

// benchParetoWarmFront mirrors BenchmarkMILPParetoFront/warm: the
// ε-retarget path behind hisweep -pareto. pivots/op vs
// pareto_cold_front is the recorded incremental-re-solve payoff of the
// warm front.
func benchParetoWarmFront(b *testing.B) { benchParetoFront(b, true) }

// benchParetoColdFront mirrors BenchmarkMILPParetoFront/cold: the
// recompile-per-bound baseline.
func benchParetoColdFront(b *testing.B) { benchParetoFront(b, false) }

func benchParetoFront(b *testing.B, warm bool) {
	b.ReportAllocs()
	var st *milp.State
	var h *core.ParetoHandle
	if warm {
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
		p, n := paretoFrontChain(b, warm, st, h)
		pivots += p
		nodes += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(points)/(b.Elapsed().Seconds()/float64(b.N)), "points/sec")
}

func benchMILPGamma(b *testing.B, warm bool) {
	b.ReportAllocs()
	var st *milp.State
	var h *core.RobustHandle
	if warm {
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
		p, n := gammaSweepChain(b, warm, st, h)
		pivots += p
		nodes += n
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
