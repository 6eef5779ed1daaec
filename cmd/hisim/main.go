// Command hisim simulates a single Human Intranet configuration with the
// discrete-event network simulator and prints the measured metrics —
// the per-configuration oracle of the DSE flow, exposed directly.
//
// Usage:
//
//	hisim -locs 0,1,3,6 -routing star -mac csma -tx -10
//	hisim -locs 0,1,3,5,7 -routing mesh -mac tdma -tx 0 -paper
//	hisim -locs 0,1,3,6 -routing star -mac tdma -tx 0 -faults knode=1
//	hisim -locs 0,1,3,6 -scenario "fail:6@15,link:0-3@10-30"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hiopt/cmd/internal/cli"
	"hiopt/internal/body"
	"hiopt/internal/engine"
	"hiopt/internal/experiments"
	"hiopt/internal/fault"
	"hiopt/internal/netsim"
	"hiopt/internal/phys"
	"hiopt/internal/report"
)

var (
	locsFlag = flag.String("locs", "0,1,3,6", "comma-separated body-location indices (0=chest ... 9=back)")
	macFlag  = flag.String("mac", "csma", "MAC protocol: csma or tdma")
	rtFlag   = flag.String("routing", "star", "routing: star or mesh")
	txFlag   = flag.Float64("tx", -10, "transmit power in dBm (-20, -10, or 0 for the CC2650)")
	fidFlags = cli.AddFidelity(flag.CommandLine)
	perNode  = flag.Bool("nodes", false, "print per-node metrics")
	trace    = flag.String("trace", "", "write a CSV event trace of the (first) run to this file")
	scenario = flag.String("scenario", "", "inject a fault scenario, e.g. \"fail:6@15,out:1@5-12,link:0-3@10-30,drain:3x100\"")
	faults   = flag.String("faults", "", "robust evaluation against a generated scenario family, e.g. \"knode=1\" or \"coord-outage\"")
	adaptive = flag.Bool("adaptive", false, "confidence-gated replication stopping in the -faults evaluation (scenarios decisively clear of -pdrmin stop early)")
	pdrMinF  = flag.Float64("pdrmin", 0.9, "reliability bound the -adaptive gate tests scenario PDRs against")
	engFlags = cli.AddEngine(flag.CommandLine, "persistent result cache: load completed simulations from this file and append fresh ones, so a repeated run at the same fidelity starts warm (ignored with -trace, whose runs exist for their side effects)")
)

func main() {
	flag.Parse()
	locs, err := cli.Ints("locs", *locsFlag, nil)
	fatalIf(err)

	var mk netsim.MACKind
	switch strings.ToLower(*macFlag) {
	case "csma":
		mk = netsim.CSMA
	case "tdma":
		mk = netsim.TDMA
	default:
		fatalIf(fmt.Errorf("unknown MAC %q", *macFlag))
	}
	var rk netsim.RoutingKind
	switch strings.ToLower(*rtFlag) {
	case "star":
		rk = netsim.Star
	case "mesh":
		rk = netsim.Mesh
	default:
		fatalIf(fmt.Errorf("unknown routing %q", *rtFlag))
	}

	cfg := netsim.DefaultConfig(locs, mk, rk, 0)
	mode := cfg.Radio.ModeByOutput(phys.DBm(*txFlag))
	if mode < 0 {
		fatalIf(fmt.Errorf("radio %s has no %+g dBm mode", cfg.Radio.Name, *txFlag))
	}
	cfg.TxMode = mode
	fid := fidFlags.Fidelity()
	cfg.Duration = fid.Duration
	if *scenario != "" {
		sc, err := fault.Parse(*scenario)
		fatalIf(err)
		cfg.Scenario = sc
	}

	// Every run evaluates on one engine, keyed so that -cachefile can
	// answer a repeated invocation at the same fidelity from disk.
	run := func(cfg netsim.Config, workers int) error {
		eng, err := engFlags.Open(os.Stdout, workers, fid.Sig())
		if err != nil {
			return err
		}
		if *faults != "" {
			var gate *netsim.Gate
			if *adaptive {
				gate = &netsim.Gate{PDRMin: *pdrMinF, Margin: 0.001}
			}
			err = runRobust(eng.Engine, cfg, fid, gate)
		} else {
			err = runSingle(eng.Engine, cfg, fid)
		}
		if err != nil {
			return err
		}
		return eng.Close()
	}
	if *trace == "" {
		fatalIf(run(cfg, 0))
		return
	}
	// A trace documents a single run, written by one worker. Trace runs
	// exist for their side effects, so they bypass the cache file and
	// stay unkeyed.
	fid.Runs = 1
	engFlags.CacheFile = ""
	fatalIf(report.WriteFile(*trace, func(w io.Writer) error {
		cfg.Trace = w
		return run(cfg, 1)
	}))
}

// runSingle evaluates one configuration and prints its metrics.
func runSingle(eng *engine.Engine, cfg netsim.Config, fid experiments.Fidelity) error {
	t0 := time.Now()
	req := engine.Request{Cfg: cfg, Runs: fid.Runs, Seed: fid.Seed}
	if cfg.Trace == nil {
		req.Key = cacheKey(cfg)
	}
	res, err := eng.Evaluate(req)
	if err != nil {
		return err
	}

	names := body.Names(body.Default())
	fmt.Printf("configuration: %s\n", cfg.Label())
	fmt.Printf("simulated:     %.0f s × %d runs in %s\n", cfg.Duration, fid.Runs, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("PDR:           %s\n", report.Pct(res.PDR))
	fmt.Printf("lifetime:      %s (worst node %s)\n", report.Days(res.NLTDays), report.MW(float64(res.MaxPower)))
	fmt.Printf("traffic:       %d sent, %d delivered, %d transmissions\n", res.Sent, res.Delivered, res.TxCount)
	fmt.Printf("medium:        %d clean rx, %d corrupted, %d collisions, %d MAC drops\n",
		res.RxClean, res.RxCorrupt, res.Collisions, res.MACDrops)
	if *perNode {
		var rows [][]string
		for i, loc := range res.Locations {
			rows = append(rows, []string{
				fmt.Sprintf("%d", loc), names[loc],
				report.Pct(res.NodePDR[i]), report.MW(float64(res.NodePower[i])),
			})
		}
		fmt.Println()
		report.Table(os.Stdout, []string{"loc", "site", "PDR", "power"}, rows)
	}
	return nil
}

// cfgKey derives a stable 32-bit cache identity from hisim's free-form
// configuration flags (locations, MAC, routing, TX mode) — the
// counterpart of design.Point.Key() for configurations that need not
// exist in the paper's design space. FNV-1a keeps it stable across
// processes, which is what makes -cachefile warm restarts work; the
// duration/runs/seed dimensions are covered by the cache file's context
// signature.
func cfgKey(cfg netsim.Config) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint32(byte(v >> (8 * i)))
			h *= 16777619
		}
	}
	mix(uint32(len(cfg.Locations)))
	for _, loc := range cfg.Locations {
		mix(uint32(loc))
	}
	mix(uint32(cfg.MAC))
	mix(uint32(cfg.Routing))
	mix(uint32(cfg.TxMode))
	if h == 0 {
		h = 1 // zero is the engine's reserved "uncached" point key
	}
	return h
}

// cacheKey is the engine cache identity of cfg, folding in a custom
// -scenario when one is injected.
func cacheKey(cfg netsim.Config) engine.Key {
	if cfg.Scenario != nil {
		return engine.ScenarioKey(cfgKey(cfg), cfg.Scenario.Key())
	}
	return engine.PointKey(cfgKey(cfg))
}

// parseFamily builds the generated scenario family named by the -faults
// spec: "knode=K" (every K-subset of the used locations fails at a
// quarter of the horizon; the star coordinator is exempt) or
// "coord-outage" (the coordinator reboots for a quarter of the horizon).
func parseFamily(cfg netsim.Config, spec string, seed uint64) ([]*fault.Scenario, error) {
	gen := fault.ScenarioGen{Seed: seed}
	switch {
	case spec == "coord-outage":
		return []*fault.Scenario{gen.CoordinatorOutage(cfg.CoordinatorLoc, cfg.Duration)}, nil
	case strings.HasPrefix(spec, "knode="):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "knode="))
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("bad -faults spec %q: want knode=K with K >= 1", spec)
		}
		exclude := -1
		if cfg.Routing == netsim.Star {
			exclude = cfg.CoordinatorLoc
		}
		fam := gen.KNodeFailures(cfg.Locations, exclude, k, cfg.Duration)
		if len(fam) == 0 {
			return nil, fmt.Errorf("-faults %s: no %d-subsets of the failable locations", spec, k)
		}
		return fam, nil
	default:
		return nil, fmt.Errorf("unknown -faults spec %q (want knode=K or coord-outage)", spec)
	}
}

// runRobust evaluates the configuration under the generated family —
// one engine batch: the nominal run plus one run per scenario — and
// prints the nominal result, the per-scenario table, and the worst case.
// A non-nil gate replication-gates the scenario runs (the nominal run
// keeps its full budget); the engine stats line then shows the savings.
// The requests are keyed, so with a cache file attached a repeated
// invocation answers the whole family from disk. Trace runs stay
// unkeyed: they exist for their side effects.
func runRobust(eng *engine.Engine, cfg netsim.Config, fid experiments.Fidelity, gate *netsim.Gate) error {
	runs, seed := fid.Runs, fid.Seed
	scenarios, err := parseFamily(cfg, *faults, seed)
	if err != nil {
		return err
	}
	keyed := cfg.Trace == nil
	base := cfg
	base.Scenario = nil
	point := cfgKey(base)
	reqs := make([]engine.Request, 0, len(scenarios)+1)
	nomReq := engine.Request{Cfg: base, Runs: runs, Seed: seed, Label: "nominal"}
	if keyed {
		nomReq.Key = engine.PointKey(point)
	}
	reqs = append(reqs, nomReq)
	for _, sc := range scenarios {
		c := base
		c.Scenario = sc
		req := engine.Request{Cfg: c, Runs: runs, Seed: seed, Label: sc.Label(), Adaptive: gate}
		if keyed {
			req.Key = engine.ScenarioKey(point, sc.Key())
		}
		reqs = append(reqs, req)
	}
	t0 := time.Now()
	results, err := eng.EvaluateBatch(reqs, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	nominal := results[0]
	fmt.Printf("configuration: %s\n", cfg.Label())
	fmt.Printf("simulated:     %.0f s × %d runs × %d scenarios (+nominal) in %s\n",
		cfg.Duration, runs, len(scenarios), elapsed.Round(time.Millisecond))
	worstPDR, worstNLT := nominal.PDR, nominal.NLTDays
	worstScenario := ""
	rows := [][]string{{"nominal", report.Pct(nominal.PDR), report.Days(nominal.NLTDays),
		report.MW(float64(nominal.MaxPower))}}
	for i, sc := range scenarios {
		r := results[i+1]
		rows = append(rows, []string{sc.Label(), report.Pct(r.PDR),
			report.Days(r.NLTDays), report.MW(float64(r.MaxPower))})
		if i == 0 || r.PDR < worstPDR {
			worstPDR = r.PDR
			worstScenario = sc.Label()
		}
		if i == 0 || r.NLTDays < worstNLT {
			worstNLT = r.NLTDays
		}
	}
	report.Table(os.Stdout, []string{"scenario", "PDR", "lifetime", "worst node"}, rows)
	fmt.Printf("worst case:    PDR %s, lifetime %s (scenario %s)\n",
		report.Pct(worstPDR), report.Days(worstNLT), worstScenario)
	return nil
}

func fatalIf(err error) {
	if err != nil {
		cli.Fatal("hisim", err)
	}
}
