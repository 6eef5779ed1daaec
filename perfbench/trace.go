package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/fault"
	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// The traced run is an outside-in trace: spans are recorded by this
// package around calls into each layer's public functions. The real call
// (an Algorithm 1 solve, a sweep) is the root span; its work is then
// replayed layer by layer — the MILP chain through milp.State, every
// iteration's pool through engine.EvaluateBatch on a fresh engine, every
// fresh simulation through a sequential netsim.Evaluator — and the replay
// spans are laid back to back under the root, in the order the real call
// made them, to split its time.

// span is one timed call. Offsets are relative to the tracer's origin.
type span struct {
	id, parent int // parent -1 for a root
	name       string
	req        int // the solve or request the span belongs to
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{id: len(t.spans), parent: parent, name: name, req: req, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.origin) }

func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.parent == id {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// writeSpans writes spans as JSON lines, times in µs from the run start.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			Req     int    `json:"req"`
			StartUS int64  `json:"start_us"`
			EndUS   int64  `json:"end_us"`
		}{s.id, s.parent, s.name, s.req, s.start.Microseconds(), s.end.Microseconds()}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// relay lays replayed child spans back to back from the root's start, in
// their recorded order, keeping each one's duration: the replay ran after
// the real call, but its calls are the ones the real call made, in that
// order.
func relay(root span, kids []span) []span {
	out := make([]span, len(kids))
	at := root.start
	for i, k := range kids {
		out[i] = k
		out[i].start, out[i].end = at, at+k.dur()
		at = out[i].end
	}
	return out
}

// covered is the part of parent's interval that the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, kids []span) time.Duration { return parent.dur() - covered(parent, kids) }

// layers accumulates the per-layer figures of a traced run.
type layers struct {
	milpCalls, pivots, nodes, refacts, legacy int
	netsimRuns                                int
	events                                    uint64
	simSeconds                                float64
	submitted, simulated, hits                int64
	iterations, evaluations, robustRejected   int
	serveAttempted, serveOK, serveRefused     int
	serveFailed                               int
	genLagP90                                 float64
	// untracedS is the same real work's wall time without spans, for
	// trace.overhead_frac.
	untracedS float64
}

// report turns the trace and counters into the per-layer metrics. roots
// are the real calls (core solves when coreRoots); a replay mismatch
// (fidelity != nil) reports trace.coverage alone.
func (l *layers) report(res *result, t *tracer, roots []int, coreRoots bool, fidelity error) {
	res.spans = t.spans
	var run, self, cov time.Duration
	for _, id := range roots {
		root := t.spans[id]
		kids := relay(root, t.children(id))
		run += root.dur()
		self += selfTime(root, kids)
		cov += covered(root, kids)
	}
	coverage := 0.0
	if run > 0 {
		coverage = cov.Seconds() / run.Seconds()
	}
	if fidelity != nil {
		res.checkf(false, "trace replay: %v", fidelity)
		res.add("trace.coverage", "fraction", coverage, len(roots))
		return
	}
	milpS := t.total("milp.solve_pool").Seconds()
	netS := t.total("netsim.run").Seconds()
	engS := t.total("engine.batch").Seconds()
	count := func(name string, v int) { res.add(name, "count", float64(v), 1) }
	res.add("milp.solve_s", "s", milpS, l.milpCalls)
	count("milp.calls", l.milpCalls)
	count("milp.pivots", l.pivots)
	count("milp.nodes", l.nodes)
	count("milp.refactorizations", l.refacts)
	count("milp.legacy_calls", l.legacy)
	res.add("milp.pivots_per_s", "1/s", ratio(float64(l.pivots), milpS), l.milpCalls)
	res.add("netsim.busy_s", "s", netS, l.netsimRuns)
	count("netsim.runs", l.netsimRuns)
	res.add("netsim.events", "count", float64(l.events), l.netsimRuns)
	res.add("netsim.events_per_s", "1/s", ratio(float64(l.events), netS), l.netsimRuns)
	res.add("netsim.simsec_per_s", "s/s", ratio(l.simSeconds, netS), l.netsimRuns)
	res.add("engine.batch_s", "s", engS, 1)
	res.add("engine.submitted", "count", float64(l.submitted), 1)
	res.add("engine.simulated", "count", float64(l.simulated), 1)
	res.add("engine.hit_frac", "fraction", ratio(float64(l.hits), float64(l.submitted)), int(l.submitted))
	res.add("engine.occupancy", "fraction", ratio(netS, float64(workers())*engS), 1)
	coreRun, coreSelf := 0.0, 0.0
	if coreRoots {
		coreRun, coreSelf = run.Seconds(), self.Seconds()
	}
	res.add("core.run_s", "s", coreRun, len(roots))
	res.add("core.self_s", "s", coreSelf, len(roots))
	count("core.iterations", l.iterations)
	count("core.evaluations", l.evaluations)
	count("core.robust_rejected", l.robustRejected)
	count("serve.attempted", l.serveAttempted)
	count("serve.ok", l.serveOK)
	count("serve.refused", l.serveRefused)
	count("serve.failed", l.serveFailed)
	res.add("serve.gen_lag_p90_ms", "ms", l.genLagP90, l.serveAttempted)
	res.add("trace.coverage", "fraction", coverage, len(roots))
	res.add("trace.overhead_frac", "fraction", ratio(run.Seconds(), l.untracedS)-1, len(roots))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addEngine adds a real call's engine counters.
func (l *layers) addEngine(s engine.Stats) {
	l.submitted += s.Submitted
	l.simulated += s.Simulated
	l.hits += s.CacheHits + s.DedupHits + s.DiskHits
}

func (l *layers) addOutcome(out *core.Outcome) {
	l.iterations += len(out.Iterations)
	l.evaluations += out.Evaluations
	l.robustRejected += out.RobustRejected
	l.addEngine(out.Engine)
}

// solveSpec is what the replay of one Algorithm 1 solve needs: the
// problem, its tenant cache salt, and what the real solve reported, to
// check the replay against.
type solveSpec struct {
	pr   *design.Problem
	salt uint64
	// pStars, pools and points are the real iterations' P̄*, pool sizes
	// and candidate sets.
	pStars []float64
	pools  []int
	points [][]design.Point
	// calls is the number of SolvePool calls the real solve made.
	calls int
}

// specFromOutcome describes a real core solve for replay.
func specFromOutcome(pr *design.Problem, out *core.Outcome) solveSpec {
	s := solveSpec{pr: pr, calls: len(out.Iterations) + 1}
	if out.Status == core.StatusBudgetExceeded {
		s.calls--
	}
	for _, it := range out.Iterations {
		s.pStars = append(s.pStars, it.PBarStar)
		s.pools = append(s.pools, len(it.Candidates))
		var pts []design.Point
		for _, c := range it.Candidates {
			pts = append(pts, c.Point)
		}
		s.points = append(s.points, pts)
	}
	return s
}

// replayer replays solves onto one engine (fresh per real engine, so
// its counters must match the real ones).
type replayer struct {
	t   *tracer
	l   *layers
	eng *engine.Engine
	// fresh lists every request the replay engine simulated, in order,
	// for the sequential netsim pass.
	fresh []engine.Request
	seen  map[engine.Key]bool
}

func newReplayer(t *tracer, l *layers) *replayer {
	return &replayer{t: t, l: l, eng: newEngines(1)[0], seen: map[engine.Key]bool{}}
}

// cutEpsilonMW is core's default strictness margin of the prune cut.
const cutEpsilonMW = 1e-4

// solve replays one solve's MILP chain and engine batches as children of
// span parent.
func (rp *replayer) solve(parent, req int, s solveSpec) error {
	work, obj, err := core.CompileMILP(s.pr)
	if err != nil {
		return err
	}
	dec := newDecoder(work.Names)
	st := milp.NewState(work, milp.Options{})
	for it := 0; it < s.calls; it++ {
		id := rp.t.begin("milp.solve_pool", parent, req)
		pool, agg, err := st.SolvePool(0, 1e-6)
		rp.t.end(id)
		if err != nil {
			return err
		}
		rp.l.milpCalls++
		rp.l.pivots += agg.LPIterations
		rp.l.nodes += agg.Nodes
		rp.l.refacts += agg.Refactorizations
		if agg.WarmSolves == 0 && agg.ColdSolves == 0 {
			rp.l.legacy++
		}
		if it >= len(s.pStars) {
			break // the call that ended the real solve
		}
		if agg.Status != milp.Optimal || agg.Objective != s.pStars[it] || len(pool) != s.pools[it] {
			return fmt.Errorf("solve %d iteration %d: replay P̄*=%v pool=%d (%s), real P̄*=%v pool=%d",
				req, it, agg.Objective, len(pool), agg.Status, s.pStars[it], s.pools[it])
		}
		points := make([]design.Point, len(pool))
		for i, ps := range pool {
			points[i] = dec.point(ps.X)
		}
		if !samePoints(points, s.points[it]) {
			return fmt.Errorf("solve %d iteration %d: replayed pool differs from the real one", req, it)
		}
		if err := rp.evaluate(parent, req, s, points); err != nil {
			return err
		}
		work.AddExprRow(fmt.Sprintf("prune_%d", it), obj, linexpr.GE, agg.Objective+cutEpsilonMW)
	}
	return nil
}

// evaluate replays one iteration's engine traffic: the pool's batch of
// distinct points.
func (rp *replayer) evaluate(parent, req int, s solveSpec, points []design.Point) error {
	var reqs []engine.Request
	for _, p := range uniquePoints(points) {
		reqs = append(reqs, engine.Request{Cfg: s.pr.Config(p), Runs: s.pr.Runs, Seed: s.pr.Seed,
			Key: salted(s.salt, engine.PointKey(p.Key()))})
	}
	_, err := rp.batch(parent, req, reqs)
	return err
}

func (rp *replayer) batch(parent, req int, reqs []engine.Request) ([]*netsim.Result, error) {
	id := rp.t.begin("engine.batch", parent, req)
	res, err := rp.eng.EvaluateBatch(reqs, nil)
	rp.t.end(id)
	for _, r := range reqs {
		if !rp.seen[r.Key] {
			rp.seen[r.Key] = true
			rp.fresh = append(rp.fresh, r)
		}
	}
	return res, err
}

// salted applies a tenant cache salt the way core.Options.CacheSalt does.
func salted(salt uint64, k engine.Key) engine.Key {
	if salt != 0 {
		k.Scenario = fault.CombineKeys(salt, k.Scenario)
	}
	return k
}

func uniquePoints(points []design.Point) []design.Point {
	seen := map[uint32]bool{}
	var out []design.Point
	for _, p := range points {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

func samePoints(a, b []design.Point) bool {
	key := func(ps []design.Point) []uint32 {
		var ks []uint32
		for _, p := range ps {
			ks = append(ks, p.Key())
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks
	}
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// netsimPass runs every fresh simulation once more on one sequential
// evaluator — the single-threaded simulator baseline.
func netsimPass(t *tracer, l *layers, reqs []engine.Request) error {
	ev := netsim.NewEvaluator()
	for i, r := range reqs {
		id := t.begin("netsim.run", -1, i)
		res, err := ev.RunAveraged(r.Cfg, r.Runs, r.Seed)
		t.end(id)
		if err != nil {
			return err
		}
		l.netsimRuns += max(r.Runs, 1)
		l.events += res.Events
		l.simSeconds += r.Cfg.Duration * float64(max(r.Runs, 1))
	}
	return nil
}

// decoder maps a MILP solution back to a design point by the compiled
// model's variable names: n<i> topology bits, p<k> Tx mode k−1, pmac
// (TDMA) and prt (mesh).
type decoder struct {
	topo       map[int]int // var index → location bit
	tx         map[int]int // var index → Tx mode
	mac, route int
}

func newDecoder(names []string) decoder {
	d := decoder{topo: map[int]int{}, tx: map[int]int{}, mac: -1, route: -1}
	for i, n := range names {
		switch {
		case n == "pmac":
			d.mac = i
		case n == "prt":
			d.route = i
		case strings.HasPrefix(n, "n"):
			if k, err := strconv.Atoi(n[1:]); err == nil {
				d.topo[i] = k
			}
		case strings.HasPrefix(n, "p"):
			if k, err := strconv.Atoi(n[1:]); err == nil {
				d.tx[i] = k - 1
			}
		}
	}
	return d
}

func (d decoder) point(x []float64) design.Point {
	var p design.Point
	for i, bit := range d.topo {
		if x[i] > 0.5 {
			p.Topology |= 1 << uint(bit)
		}
	}
	for i, k := range d.tx {
		if x[i] > 0.5 {
			p.TxMode = k
		}
	}
	if d.mac >= 0 && x[d.mac] > 0.5 {
		p.MAC = netsim.TDMA
	}
	if d.route >= 0 && x[d.route] > 0.5 {
		p.Routing = netsim.Mesh
	}
	return p
}
