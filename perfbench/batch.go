package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/milp"
	"hiopt/internal/netsim"
)

// The batch workloads run at the experiment suite's quick fidelity
// (60 s × 1 run).
const (
	quickDuration = 60.0
	// feasTol is core's and exhaustive's default reliability tolerance.
	feasTol = 0.001
	// setupReps is how many times (at least) a batch workload builds and
	// warms its inputs; the median is setup_s. Builds take milliseconds,
	// so many are cheap and steady the median.
	setupReps = 15
)

var r1Bounds = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}

// problem is the paper's §4.1 design example at a benchmark fidelity and
// simulator master seed.
func problem(pdrMin float64, seed uint64, duration float64) *design.Problem {
	pr := design.PaperProblem(pdrMin)
	pr.Duration = duration
	pr.Runs = 1
	pr.Seed = seed
	return pr
}

// newEngines builds n cold engines with the benchmark's worker count.
func newEngines(n int) []*engine.Engine {
	out := make([]*engine.Engine, n)
	for i := range out {
		eng, err := engine.New(workers())
		if err != nil {
			panic(err) // only negative worker counts fail
		}
		out[i] = eng
	}
	return out
}

// warmEngine runs one uncached simulation of pr's first design point on
// every worker, so the evaluators' lazily grown buffers exist before
// timing. Uncached requests leave the engine's cache cold.
func warmEngine(eng *engine.Engine, pr *design.Problem) {
	cfg := pr.Config(pr.Points()[0])
	reqs := make([]engine.Request, eng.Workers())
	for i := range reqs {
		reqs[i] = engine.Request{Cfg: cfg, Runs: 1, Seed: pr.Seed}
	}
	if _, err := eng.EvaluateBatch(reqs, nil); err != nil {
		panic(err) // the paper problem's points always simulate
	}
}

// warmMILP compiles pr's relaxation and solves its first pool once.
func warmMILP(pr *design.Problem) {
	work, _, err := core.CompileMILP(pr)
	if err != nil {
		panic(err) // the workloads' problems always compile
	}
	if _, _, err := milp.NewState(work, milp.Options{}).SolvePool(0, 1e-6); err != nil {
		panic(err)
	}
}

// passes runs build+pass repeatedly for about seconds of pass time: a
// pass starts only while the median pass so far still fits (the first
// always runs). Every pass gets freshly built inputs, so each one is cold.
// build is timed apart from the passes and runs at least setupReps times
// (the extra builds before the first pass are discarded); the median
// build time is setup_s. It returns every pass's wall time.
func passes[T any](seconds float64, build func() T, pass func(i int, in T) error) (walls, setups []float64, err error) {
	timedBuild := func() T {
		t := time.Now()
		in := build()
		setups = append(setups, time.Since(t).Seconds())
		return in
	}
	for i := 1; i < setupReps; i++ {
		timedBuild()
	}
	spent := 0.0
	for i := 0; ; i++ {
		in := timedBuild()
		t := time.Now()
		if err := pass(i, in); err != nil {
			return walls, setups, err
		}
		w := time.Since(t).Seconds()
		walls = append(walls, w)
		spent += w
		if spent+median(walls) > seconds {
			return walls, setups, nil
		}
	}
}

// addPassMetrics reports a batch workload's end-to-end figures. A pass
// answers one request (the table, the sweep), so its
// time to design is its wall time.
func addPassMetrics(res *result, walls, setups []float64) {
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("wall_s", "s", median(walls), len(walls))
	res.add("ttd_p50_ms", "ms", median(walls)*1000, len(walls))
}

// --- r1_quick: the R1 table, seven cold Algorithm 1 solves ---

type r1Input struct {
	probs []*design.Problem
	engs  []*engine.Engine
	// order is the order the seven independent solves run in.
	order []int
}

// r1SimSeed is the §4.1 example's simulator master seed, kept for every
// workload seed. At 60 s × 1 run the strict bounds sit on a feasibility
// edge: the simulator seed alone moves the PDRmin 0.95 chain between 264
// and 660 simulations (a 9 s or a 15 s table), which would swamp any
// regression bound. The workload seed permutes the solve order instead.
const r1SimSeed = 1

func buildR1(seed uint64) r1Input {
	in := r1Input{engs: newEngines(len(r1Bounds)), order: subRand(seed, 4).Perm(len(r1Bounds))}
	for i, b := range r1Bounds {
		in.probs = append(in.probs, problem(b, r1SimSeed, quickDuration))
		warmEngine(in.engs[i], in.probs[i])
	}
	warmMILP(in.probs[0])
	return in
}

// r1Pin is one row of the R1 table (the same for every workload seed).
type r1Pin struct {
	design     string
	pdr, power uint64 // float64 bits
	sims       int
}

var r1Pins = []r1Pin{
	{"[0 1 4 6] Star CSMA tx1", 0x3fe461457c077a7c, 0x3fe3cb9953b1e785, 32},
	{"[0 1 4 6] Star CSMA tx1", 0x3fe461457c077a7c, 0x3fe3cb9953b1e785, 32},
	{"[0 2 4 5] Star TDMA tx1", 0x3fe6e05a90985045, 0x3fe59f2b020c4a28, 32},
	{"[0 1 3 6] Star TDMA tx2", 0x3fed106a3534f315, 0x3feb0bae147ae112, 48},
	{"[0 1 3 6] Star TDMA tx2", 0x3fed106a3534f315, 0x3feb0bae147ae112, 48},
	{"[0 2 4 5 8] Star TDMA tx2", 0x3fee87219ff0e61b, 0x3ff1fb2b020c4888, 264},
	{"[0 2 3 5] Mesh TDMA tx2", 0x3ff0000000000000, 0x400376f7ced91739, 708},
}

func runR1(seed uint64, seconds float64) *result {
	res := &result{}
	var ttd []float64
	var first []*core.Outcome
	walls, setups, err := passes(seconds, func() r1Input { return buildR1(seed) },
		func(pass int, in r1Input) error {
			outs := make([]*core.Outcome, len(in.probs))
			for _, i := range in.order {
				t := time.Now()
				out, err := core.NewOptimizer(in.probs[i], core.Options{Engine: in.engs[i]}).Run()
				ttd = append(ttd, time.Since(t).Seconds()*1000)
				res.attempted++
				if err != nil {
					res.failed++
					return err
				}
				outs[i] = out
			}
			if pass == 0 {
				first = outs
				checkR1(res, in.probs, outs)
			} else {
				res.checkf(r1Digest(outs) == r1Digest(first), "r1 pass %d differs from pass 0", pass)
			}
			return nil
		})
	res.checkf(err == nil, "r1: %v", err)
	addPassMetrics(res, walls, setups)
	res.extra = append(res.extra, metric{name: "solve_p50_ms", unit: "ms", value: median(ttd), n: len(ttd)})
	return res
}

func pointLabel(p design.Point) string {
	return fmt.Sprintf("%v %s %s tx%d", p.Locations(), p.Routing, p.MAC, p.TxMode)
}

// checkR1 checks every bound's design and the pinned table.
func checkR1(res *result, probs []*design.Problem, outs []*core.Outcome) {
	for i, out := range outs {
		b := r1Bounds[i]
		if out.Best == nil {
			res.checkf(false, "r1 PDRmin %.2f: no design", b)
			continue
		}
		checkDesign(res, fmt.Sprintf("r1 PDRmin %.2f", b), probs[i], out.Best.Point, out.Best.PDR, out.Best.PowerMW, b)
		pin := r1Pins[i]
		got := r1Pin{pointLabel(out.Best.Point), math.Float64bits(out.Best.PDR), math.Float64bits(out.Best.PowerMW), out.Simulations}
		res.checkf(got == pin, "r1 PDRmin %.2f: got %s pdr=%#x power=%#x sims=%d, pinned %s pdr=%#x power=%#x sims=%d",
			b, got.design, got.pdr, got.power, got.sims, pin.design, pin.pdr, pin.power, pin.sims)
	}
}

// checkDesign checks that a selected design clears its bound and that a
// fresh simulation reproduces its reported PDR and power bit-exactly.
func checkDesign(res *result, what string, pr *design.Problem, p design.Point, pdr, power, bound float64) {
	res.checkf(pdr >= bound-feasTol, "%s: design %s PDR %.6f below bound", what, pointLabel(p), pdr)
	sim, err := netsim.NewEvaluator().RunAveraged(pr.Config(p), pr.Runs, pr.Seed)
	if err != nil {
		res.checkf(false, "%s: re-simulation: %v", what, err)
		return
	}
	res.checkf(sim.PDR == pdr && float64(sim.MaxPower) == power,
		"%s: re-simulation of %s gives PDR %v power %v, reported %v %v",
		what, pointLabel(p), sim.PDR, float64(sim.MaxPower), pdr, power)
}

func r1Digest(outs []*core.Outcome) uint64 {
	h := fnv.New64a()
	for _, out := range outs {
		if out.Best != nil {
			fmt.Fprintf(h, "%d %x %x %d;", out.Best.Point.Key(), math.Float64bits(out.Best.PDR),
				math.Float64bits(out.Best.PowerMW), out.Simulations)
		}
	}
	return h.Sum64()
}

// --- f3_quick: the Fig. 3 exhaustive sweep ---

const f3Configs = 1320

// f3DigestPin is the sweep digest at the default seed.
const f3DigestPin = 0x70b1793ab573c629

// f3Input is one pass's problem and cold engine.
type f3Input struct {
	pr  *design.Problem
	eng *engine.Engine
}

func buildF3(seed uint64) f3Input {
	in := f3Input{pr: problem(0.5, seed, quickDuration), eng: newEngines(1)[0]}
	warmEngine(in.eng, in.pr)
	return in
}

func runF3(seed uint64, seconds float64) *result {
	res := &result{}
	var digest0 uint64
	walls, setups, err := passes(seconds, func() f3Input { return buildF3(seed) },
		func(pass int, in f3Input) error {
			sweep, err := exhaustive.Search(in.pr, exhaustive.Options{Engine: in.eng})
			res.attempted += f3Configs
			if err != nil {
				res.failed += f3Configs
				return err
			}
			d := f3Digest(sweep)
			if pass == 0 {
				digest0 = d
				checkF3(res, in.pr, sweep, seed)
			} else {
				res.checkf(d == digest0, "f3 pass %d digest %#x differs from pass 0 %#x", pass, d, digest0)
			}
			return nil
		})
	res.checkf(err == nil, "f3: %v", err)
	addPassMetrics(res, walls, setups)
	return res
}

// f3Digest hashes every sweep row: point, simulated PDR, NLT and power
// bits, and the feasibility verdict.
func f3Digest(sweep *exhaustive.Result) uint64 {
	h := fnv.New64a()
	for _, e := range sweep.All {
		fmt.Fprintf(h, "%d %x %x %x %v;", e.Point.Key(), math.Float64bits(e.PDR),
			math.Float64bits(e.NLTDays), math.Float64bits(e.PowerMW), e.Feasible)
	}
	return h.Sum64()
}

// checkF3 checks the sweep's size, re-simulates the Fig. 3 optimum of
// every R1 bound (the figure's arrows), and at the default seed pins the
// digest of all rows.
func checkF3(res *result, pr *design.Problem, sweep *exhaustive.Result, seed uint64) {
	res.checkf(len(sweep.All) == f3Configs, "f3: %d rows, want %d", len(sweep.All), f3Configs)
	for _, b := range r1Bounds {
		for _, e := range sweep.All { // sorted by power: the first feasible row is the optimum
			if e.PDR >= b-feasTol {
				checkDesign(res, fmt.Sprintf("f3 PDRmin %.2f", b), pr, e.Point, e.PDR, e.PowerMW, b)
				break
			}
		}
	}
	if seed == 1 {
		d := f3Digest(sweep)
		res.checkf(d == f3DigestPin, "f3: digest %#x, pinned %#x", d, uint64(f3DigestPin))
	}
}
