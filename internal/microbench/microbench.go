// Package microbench holds the simulation-core micro-benchmarks that
// BENCH_simcore.json gates, each with exactly one body. `hibench
// -benchjson` measures Cases in-process and records every entry under its
// Name; the root bench_test.go runs the same Cases as the sub-benchmarks
// of BenchmarkMicro, so `go test -bench` (and `make bench-smoke`) always
// times the code the `hibench -cmp` gate compares.
//
// The package must not import the test-only reference solver
// (internal/milp/oracle); benchmarks that compare against it live in
// bench_test.go and reuse the chains exported here.
package microbench

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/channel"
	"hiopt/internal/des"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/fault"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/rng"
)

// Case is one gated micro-benchmark: Name is its key in
// BENCH_simcore.json's "benchmarks" object.
type Case struct {
	Name string
	F    func(*testing.B)
}

// Cases is the ordered registry of every gated micro-benchmark. A
// baseline entry missing here fails `hibench -cmp` (unless the baseline
// lists it as retired) and the registry test in cmd/hibench.
var Cases = []Case{
	{"des_steady_state", desSteadyState},
	{"netsim_one_second", netsimOneSecond},
	{"channel_pathloss_at", channelPathLossAt},
	{"robust_eval", robustEval},
	{"engine_batch", engineBatch},
	{"engine_cache_hit", engineCacheHit},
	{"engine_reps_parallel", engineRepsParallel},
	{"engine_adaptive_screen", engineAdaptiveScreen},
	{"engine_shard_contention", engineShardContention},
	{"engine_disk_warm", engineDiskWarm},
	{"milp_pool", func(b *testing.B) { MILPPool(b, warmPool(milp.Options{})) }},
	{"milp_sparse_pool", func(b *testing.B) { genM40Pool(b, milp.Options{}) }},
	{"milp_dense_m40", func(b *testing.B) { genM40Pool(b, milp.Options{DenseLP: true}) }},
	{"milp_presolve", milpPresolve},
	{"milp_parallel_bb", milpParallelBB},
	{"milp_gamma_warm", func(b *testing.B) { gammaSweep(b, true) }},
	{"milp_gamma_cold", func(b *testing.B) { gammaSweep(b, false) }},
	{"pareto_warm_front", func(b *testing.B) { paretoFront(b, true) }},
	{"pareto_cold_front", func(b *testing.B) { paretoFront(b, false) }},
}

// desSteadyState is a self-rescheduling event chain at 1 kHz: after
// warm-up every Schedule is served from the kernel's free list, so steady
// state must report 0 allocs/op (1000 events per op).
func desSteadyState(b *testing.B) {
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

// netsimOneSecond simulates one second per op of the busiest protocol
// corner (5-node CSMA mesh), stepped on a single long-lived network so
// the pooled steady state is visible: 0 allocs/op after warm-up.
func netsimOneSecond(b *testing.B) {
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

// sinkDB defeats dead-code elimination of channelPathLossAt.
var sinkDB phys.DB

// channelPathLossAt samples one transmission's worth of receptions per
// op: every receiver pair advances to the same instant, exercising the
// flat pair-index lookup and the shared exp(−Δt/τ) memoization. Must
// report 0 allocs/op.
func channelPathLossAt(b *testing.B) {
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
	sinkDB = sink
}

// robustFamily is the 4-node star's 10-second configuration and its
// 1-node-failure family, the workload of the robust and engine
// benchmarks.
func robustFamily() (netsim.Config, []*fault.Scenario) {
	cfg := netsim.DefaultConfig([]int{0, 1, 3, 6}, netsim.TDMA, netsim.Star, 2)
	cfg.Duration = 10
	return cfg, fault.ScenarioGen{Seed: 1}.KNodeFailures(cfg.Locations, cfg.CoordinatorLoc, 1, cfg.Duration)
}

// robustEval is one 10-second robust evaluation per op: the 4-node star
// against its 1-node-failure family (3 scenarios + nominal, common random
// numbers) on a recycled evaluator — the unit of work the optimizer's
// robust screening pays per nominally feasible candidate.
func robustEval(b *testing.B) {
	cfg, scenarios := robustFamily()
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
// robustEval's work: the nominal run plus the 1-node-failure family, as
// one batch (keyed for the cache-hit variants).
func engineBatchRequests(keyed bool) []engine.Request {
	cfg, scenarios := robustFamily()
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

// engineBatch dispatches robustEval's family through the evaluation
// engine's worker pool, uncached (every op simulates afresh): ns/op vs
// robust_eval is the engine's dispatch overhead, which must stay
// negligible against the simulation itself.
func engineBatch(b *testing.B) {
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

// engineCacheHit answers the same batch, keyed and pre-warmed, from the
// unified cache without touching a simulator. EvaluateBatchInto with a
// reused results slice exercises the all-hits fast path — 0 allocs/op,
// pinned by the hibench -cmp allocation gate.
func engineCacheHit(b *testing.B) {
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

// contentionHits is the fixed number of cache hits one
// engine_shard_contention op performs, whatever GOMAXPROCS is, so ns/op
// compares across hosts.
const contentionHits = 1000

// contendHits splits contentionHits single-request lookups over g
// goroutines hammering the engine's cache-hit path. Each goroutine walks
// the keyed request set from its own phase offset (colliding keys,
// distinct access order) — the access pattern of cache-heavy concurrent
// batches.
func contendHits(b *testing.B, eng *engine.Engine, reqs []engine.Request, g int) {
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * contentionHits / g; i < (w+1)*contentionHits/g; i++ {
				if _, err := eng.Evaluate(reqs[(w+i)%len(reqs)]); err != nil {
					b.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// engineShardContention runs contentionHits cache hits per op from
// GOMAXPROCS goroutines on the lock-striped cache. The same workload
// against a single-stripe engine (the old single-mutex layout,
// NewSharded(…, 1)) is timed before the measured loop;
// speedup_vs_mutex1 is the contended-hit throughput ratio — ≈1 on a
// 1-CPU host where goroutines serialize anyway, and growing with cores as
// stripes stop the lock convoy.
func engineShardContention(b *testing.B) {
	g := runtime.GOMAXPROCS(0)
	reqs := engineBatchRequests(true)

	m1, err := engine.NewSharded(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m1.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, m1, reqs, g) // warm up the baseline
	t0 := time.Now()
	const baseRounds = 3
	for i := 0; i < baseRounds; i++ {
		contendHits(b, m1, reqs, g)
	}
	base := time.Since(t0).Seconds() / baseRounds

	sharded, err := engine.NewSharded(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sharded.EvaluateBatch(reqs, nil); err != nil {
		b.Fatal(err)
	}
	contendHits(b, sharded, reqs, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contendHits(b, sharded, reqs, g)
	}
	b.StopTimer()
	per := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(base/per, "speedup_vs_mutex1")
	b.ReportMetric(contentionHits, "hits/op")
	b.ReportMetric(float64(g), "goroutines")
}

// engineDiskWarm is the warm-restart path end to end: a cold engine
// evaluates the keyed batch once and saves it; every op then builds a
// fresh engine, loads the cache file, and answers the whole batch from
// the persisted tier without a single fresh simulation.
func engineDiskWarm(b *testing.B) {
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

// engineRepsParallel runs 16 points × 8 replications at Workers =
// GOMAXPROCS, scheduled at replication granularity (each replication is
// its own sub-task, so a single point's 8 replications spread across the
// pool). The sequential-replication baseline — one evaluator,
// replications in seed order — is timed inside the benchmark;
// speedup_vs_sequential records the wall-clock ratio: ≈1 on a
// single-core box, approaching min(GOMAXPROCS, reps) with cores.
func engineRepsParallel(b *testing.B) {
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

// engineAdaptiveScreen is the screening-style adaptive workload: the same
// 16 points with the 8×2 s budget split into confidence-gated blocks
// against a bound every candidate is decisively clear of, so the gate
// stops most replication budgets early. reps_saved/op and saved_frac
// record the avoided work (the requests are keyless, so every op
// simulates afresh — a warm cache would measure nothing).
func engineAdaptiveScreen(b *testing.B) {
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
