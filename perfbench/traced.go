package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"hiopt/internal/body"
	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/engine"
	"hiopt/internal/exhaustive"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/serve"
)

// The traced runs. Each makes the workload's real calls once untraced
// (the baseline of trace.overhead_frac), once more as root spans, then
// replays them layer by layer (see trace.go).

// replaySolves replays core solves, one fresh replay engine per solve
// (each real solve had its own cold engine), checks the replayed engine
// traffic against the real one, and runs the sequential netsim pass.
func replaySolves(t *tracer, l *layers, roots []int, specs []solveSpec) error {
	var fresh []engine.Request
	var simulated int64
	for i, s := range specs {
		rp := newReplayer(t, l)
		if err := rp.solve(roots[i], i, s); err != nil {
			return err
		}
		simulated += rp.eng.Stats().Simulated
		fresh = append(fresh, rp.fresh...)
	}
	if simulated != l.simulated {
		return fmt.Errorf("replayed engine batches simulated %d, real solves %d", simulated, l.simulated)
	}
	return netsimPass(t, l, fresh)
}

func traceR1(seed uint64, _ float64) *result {
	res := &result{}
	l := &layers{}
	in := buildR1(seed)
	start := time.Now()
	for _, i := range in.order {
		if _, err := core.NewOptimizer(in.probs[i], core.Options{Engine: in.engs[i]}).Run(); err != nil {
			res.attempted, res.failed = 1, 1
			res.checkf(false, "r1: %v", err)
			return res
		}
	}
	l.untracedS = time.Since(start).Seconds()

	t := newTracer()
	in = buildR1(seed)
	var roots []int
	var specs []solveSpec
	outs := make([]*core.Outcome, len(in.probs))
	for _, i := range in.order {
		pr := in.probs[i]
		id := t.begin("core.run", -1, i)
		out, err := core.NewOptimizer(pr, core.Options{Engine: in.engs[i]}).Run()
		t.end(id)
		res.attempted++
		if err != nil {
			res.failed++
			res.checkf(false, "r1: %v", err)
			return res
		}
		outs[i] = out
		l.addOutcome(out)
		roots = append(roots, id)
		specs = append(specs, specFromOutcome(pr, out))
	}
	checkR1(res, in.probs, outs)
	l.report(res, t, roots, true, replaySolves(t, l, roots, specs))
	return res
}

func traceF3(seed uint64, _ float64) *result {
	res := &result{}
	l := &layers{}
	in := buildF3(seed)
	start := time.Now()
	if _, err := exhaustive.Search(in.pr, exhaustive.Options{Engine: in.eng}); err != nil {
		res.attempted, res.failed = 1, 1
		res.checkf(false, "f3: %v", err)
		return res
	}
	l.untracedS = time.Since(start).Seconds()

	t := newTracer()
	in = buildF3(seed)
	root := t.begin("exhaustive.search", -1, 0)
	sweep, err := exhaustive.Search(in.pr, exhaustive.Options{Engine: in.eng})
	t.end(root)
	res.attempted = f3Configs
	if err != nil {
		res.failed = f3Configs
		res.checkf(false, "f3: %v", err)
		return res
	}
	l.addEngine(sweep.Stats)
	checkF3(res, in.pr, sweep, seed)
	fidelity := func() error {
		rp := newReplayer(t, l)
		var reqs []engine.Request
		for _, p := range in.pr.Points() {
			reqs = append(reqs, engine.Request{Cfg: in.pr.Config(p), Runs: in.pr.Runs, Seed: in.pr.Seed,
				Key: engine.PointKey(p.Key())})
		}
		if _, err := rp.batch(root, 0, reqs); err != nil {
			return err
		}
		if got := rp.eng.Stats().Simulated; got != sweep.Stats.Simulated {
			return fmt.Errorf("replayed sweep simulated %d, real sweep %d", got, sweep.Stats.Simulated)
		}
		return netsimPass(t, l, rp.fresh)
	}()
	l.report(res, t, []int{root}, false, fidelity)
	return res
}

// tenantProblem rebuilds the design problem hiserve solves for a
// normalized profile (serve's Profile.problem): the profile's deviations
// applied to the §4.1 example. The traced run checks every rebuilt solve
// against the server's response, so a drift here fails the replay.
func tenantProblem(p serve.Profile) *design.Problem {
	pr := design.PaperProblem(p.PDRMin)
	pr.Duration = p.Duration
	pr.Runs = p.Runs
	pr.Seed = p.Seed
	pr.BatteryJ = phys.Joule(float64(netsim.CR2032EnergyJ) * p.BatteryFrac)
	pr.Channel.NLoSPenalty += phys.DB(p.ShadowDB)
	pr.Channel.Sigma *= p.SigmaScale
	if p.BodyScale != 1 {
		locs := body.Default()
		for i := range locs {
			locs[i].X *= p.BodyScale
			locs[i].Y *= p.BodyScale
			locs[i].Z *= p.BodyScale
		}
		pr.BodyLocations = locs
	}
	return pr
}

// tenantSalt keys a tenant's simulations apart on a shared replay engine:
// every field that changes what is simulated.
func tenantSalt(p serve.Profile) uint64 {
	s := uint64(0x7065726662656e63)
	for _, v := range []float64{p.BodyScale, p.ShadowDB, p.SigmaScale, p.BatteryFrac, p.Duration, float64(p.Runs), float64(p.Seed)} {
		s = fault.CombineKeys(s, math.Float64bits(v))
	}
	return s
}

// tenantSolve is one request re-solved through core, with what the
// server answered.
type tenantSolve struct {
	prof serve.Profile
	pr   *design.Problem
	resp *serve.Response
	evs  []iterEvent
}

func (ts tenantSolve) run(eng *engine.Engine) (*core.Outcome, error) {
	return core.NewOptimizer(ts.pr, core.Options{
		Engine: eng, CacheSalt: tenantSalt(ts.prof), MaxIterations: ts.prof.MaxIterations,
	}).Run()
}

// matches checks a re-solve against the server's response.
func (ts tenantSolve) matches(out *core.Outcome) error {
	r := ts.resp
	if r.Status != out.Status.String() || r.Iterations != len(out.Iterations) || r.Evaluations != out.Evaluations {
		return fmt.Errorf("re-solve of %+v: %s/%d iterations/%d evaluations, server %s/%d/%d", ts.prof,
			out.Status, len(out.Iterations), out.Evaluations, r.Status, r.Iterations, r.Evaluations)
	}
	if (r.Design == nil) != (out.Best == nil) ||
		(r.Design != nil && (r.Design.PDR != out.Best.PDR || r.Design.PowerMW != out.Best.PowerMW)) {
		return fmt.Errorf("re-solve of %+v selects a different design than the server", ts.prof)
	}
	for i, ev := range ts.evs {
		if i >= len(out.Iterations) || ev.PBarStar != out.Iterations[i].PBarStar || ev.Pool != len(out.Iterations[i].Candidates) {
			return fmt.Errorf("re-solve of %+v: iteration %d differs from the streamed event", ts.prof, i)
		}
	}
	return nil
}

// tenantSolves decodes the requests and the server's answers to them.
func tenantSolves(reqs []request, ss []sample) ([]tenantSolve, error) {
	out := make([]tenantSolve, len(reqs))
	for i, r := range reqs {
		var raw serve.Profile
		if err := json.Unmarshal(r.body, &raw); err != nil {
			return nil, err
		}
		p, err := raw.Normalize()
		if err != nil {
			return nil, err
		}
		var resp *serve.Response
		var evs []iterEvent
		if i < len(ss) && ss[i].status == http.StatusOK {
			resp, evs, err = parseResponse(ss[i].body, r.stream)
			if err != nil {
				return nil, err
			}
		}
		out[i] = tenantSolve{prof: p, pr: tenantProblem(p), resp: resp, evs: evs}
	}
	return out, nil
}

// serveTraceSeconds caps the mix a traced serve_mix run replays: the
// trace re-solves every request three more times (untraced, as roots,
// and as a layer replay), and a longer mix would push a traced run past
// three minutes.
const serveTraceSeconds = 20

func traceServe(seed uint64, seconds float64) *result {
	res := &result{}
	l := &layers{}
	ph, err := runServePhases(seed, min(seconds, serveTraceSeconds))
	if err != nil {
		res.attempted, res.failed = 1, 1
		res.checkf(false, "serve: %v", err)
		return res
	}
	ph.srv.close()
	ok, refused, failed := ph.account(res)
	l.serveAttempted, l.serveOK, l.serveRefused, l.serveFailed = res.attempted, ok, refused, failed
	var lag []float64
	for _, s := range ph.open {
		lag = append(lag, s.lagMS())
	}
	if _, p90, ok := tail(lag, 90); ok {
		l.genLagP90 = p90
	}
	l.addEngine(ph.engEnd.Sub(ph.engStart))

	warm, err := tenantSolves(ph.mix.warm, nil)
	if err != nil {
		res.checkf(false, "serve: %v", err)
		return res
	}
	timedReqs := append(append([]request(nil), ph.mix.open...), ph.mix.closed...)
	timed, err := tenantSolves(timedReqs, append(append([]sample(nil), ph.open...), ph.closed...))
	if err != nil {
		res.checkf(false, "serve: %v", err)
		return res
	}

	// The server's solves run behind HTTP, so the core layer's real calls
	// are re-issued here in order (warm-up first, untimed) on a shared
	// engine: once untraced, once as root spans.
	resolve := func(t *tracer) ([]int, []solveSpec, error) {
		eng := newEngines(1)[0]
		for _, ts := range warm {
			if _, err := ts.run(eng); err != nil {
				return nil, nil, err
			}
		}
		var roots []int
		var specs []solveSpec
		for i, ts := range timed {
			id := -1
			if t != nil {
				id = t.begin("core.run", -1, i)
			}
			out, err := ts.run(eng)
			if t != nil {
				t.end(id)
			}
			if err != nil {
				return nil, nil, err
			}
			if ts.resp != nil {
				if err := ts.matches(out); err != nil {
					return nil, nil, err
				}
			}
			if t != nil {
				l.iterations += len(out.Iterations)
				l.evaluations += out.Evaluations
				l.robustRejected += out.RobustRejected
				spec := specFromOutcome(ts.pr, out)
				spec.salt = tenantSalt(ts.prof)
				roots = append(roots, id)
				specs = append(specs, spec)
			}
		}
		return roots, specs, nil
	}
	start := time.Now()
	if _, _, err := resolve(nil); err != nil {
		l.report(res, newTracer(), nil, true, err)
		return res
	}
	l.untracedS = time.Since(start).Seconds()
	t := newTracer()
	roots, specs, err := resolve(t)
	if err == nil {
		err = replayTenants(t, l, warm, roots, specs, ph.engEnd.Sub(ph.engStart).Simulated)
	}
	l.report(res, t, roots, true, err)
	return res
}

// replayTenants replays the timed requests' MILP chains and engine
// batches on one shared engine warmed by the warm-up requests, as the
// server's engine was, and checks its fresh simulations against the
// server's.
func replayTenants(t *tracer, l *layers, warm []tenantSolve, roots []int, specs []solveSpec, realSim int64) error {
	rp := newReplayer(t, l)
	scratch := &layers{}
	warmRP := &replayer{t: newTracer(), l: scratch, eng: rp.eng, seen: rp.seen}
	for i, ts := range warm {
		out, err := ts.run(newEngines(1)[0])
		if err != nil {
			return err
		}
		spec := specFromOutcome(ts.pr, out)
		spec.salt = tenantSalt(ts.prof)
		if err := warmRP.solve(-1, i, spec); err != nil {
			return err
		}
	}
	before := rp.eng.Stats().Simulated
	for i, s := range specs {
		if err := rp.solve(roots[i], i, s); err != nil {
			return err
		}
	}
	if got := rp.eng.Stats().Simulated - before; got != realSim {
		return fmt.Errorf("replayed engine batches simulated %d after warm-up, server %d", got, realSim)
	}
	return netsimPass(t, l, rp.fresh)
}
