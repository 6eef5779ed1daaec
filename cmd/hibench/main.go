// Command hibench regenerates the paper's evaluation artifacts — every
// table, figure, and headline claim, plus the ablation studies of
// DESIGN.md — and prints paper-versus-measured comparisons.
//
// Usage:
//
//	hibench                      # all experiments at quick fidelity
//	hibench -exp f3,r1           # a subset
//	hibench -paper               # the paper's full 600 s × 3-run setting
//
// Experiment identifiers: t1, f1, f3, r1, r2, r3, a1..a11, pf, all, plus
// rb (nominal-vs-robust comparison), gm (Γ-robust proposer vs
// screen-and-cut price curve), and fr (warm ε-constraint
// NLT/PDR/latency front), all excluded from "all" for cost. An unknown
// identifier is an error, and so is -csv when more than one of the
// CSV-writing studies (f3, rb, gm, fr) is selected.
//
// Performance tooling: -cpuprofile/-memprofile write pprof profiles of
// the run, and -benchjson measures the simulator micro-benchmarks
// in-process and emits them (with per-experiment wall times) as JSON —
// the generator of the checked-in BENCH_simcore.json. Two such files are
// diffed with
//
//	hibench -cmp OLD.json NEW.json
//
// which prints a delta table and exits non-zero when any benchmark's
// ns_per_op regressed by more than 10% (the `make benchcmp` gate).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hiopt/cmd/internal/cli"
	"hiopt/internal/experiments"
)

var (
	expFlag   = flag.String("exp", "all", "comma-separated experiment ids (t1,f1,f3,r1,r2,r3,a1..a11,pf,rb,gm,fr,all)")
	fidFlags  = cli.AddFidelity(flag.CommandLine)
	csvPath   = flag.String("csv", "", "write the F3 scatter to this CSV file")
	profFlags = cli.AddProfile(flag.CommandLine)
	benchJSON = flag.String("benchjson", "", "measure the simulator micro-benchmarks and write BENCH_simcore.json-style output to this file")
	cmp       = flag.Bool("cmp", false, "compare two -benchjson files: hibench -cmp OLD NEW (exits non-zero on >10% ns/op, allocs/op, or B/op regressions)")
	nsDelta   = flag.Float64("nsdelta", 0, "-cmp ns/op regression threshold (0 = the default 0.10; allocs/op and B/op always gate at 0.10 — widen this on noisy shared machines where timings flap but allocation counts stay exact)")
	engFlags  = cli.AddEngine(flag.CommandLine, "persistent result cache: load completed simulations from this file and append fresh ones, so a repeated run at the same fidelity starts warm")
)

// experiment is one -exp id. csv marks the studies that write the -csv
// file; extra marks those too costly for "all", which run only when
// named.
type experiment struct {
	id         string
	csv, extra bool
	run        func(s *experiments.Suite, csvPath string) error
}

var catalog = []experiment{
	{id: "t1", run: func(s *experiments.Suite, _ string) error { s.Table1(); return nil }},
	{id: "f1", run: func(s *experiments.Suite, _ string) error { s.Fig1(); return nil }},
	{id: "f3", csv: true, run: func(s *experiments.Suite, p string) error { _, err := s.Fig3(p); return err }},
	{id: "r1", run: func(s *experiments.Suite, _ string) error { _, err := s.R1(nil); return err }},
	{id: "r2", run: func(s *experiments.Suite, _ string) error { _, err := s.R2(nil); return err }},
	{id: "r3", run: func(s *experiments.Suite, _ string) error { _, err := s.R3(nil, 0); return err }},
	{id: "a1", run: func(s *experiments.Suite, _ string) error { _, err := s.A1(); return err }},
	{id: "a2", run: func(s *experiments.Suite, _ string) error { _, err := s.A2(); return err }},
	{id: "a3", run: func(s *experiments.Suite, _ string) error { _, err := s.A3(); return err }},
	{id: "a4", run: func(s *experiments.Suite, _ string) error { _, err := s.A4(); return err }},
	{id: "a5", run: func(s *experiments.Suite, _ string) error { _, err := s.A5(); return err }},
	{id: "a6", run: func(s *experiments.Suite, _ string) error { _, err := s.A6(); return err }},
	{id: "a7", run: func(s *experiments.Suite, _ string) error { _, err := s.A7(); return err }},
	{id: "a8", run: func(s *experiments.Suite, _ string) error { _, err := s.A8(); return err }},
	{id: "a9", run: func(s *experiments.Suite, _ string) error { _, err := s.A9(); return err }},
	{id: "a10", run: func(s *experiments.Suite, _ string) error { _, err := s.A10(); return err }},
	{id: "a11", run: func(s *experiments.Suite, _ string) error { _, err := s.A11(); return err }},
	{id: "pf", run: func(s *experiments.Suite, _ string) error { _, err := s.PF(nil); return err }},
	// rb re-simulates every nominally feasible sweep entry under its
	// k-node-failure family.
	{id: "rb", csv: true, extra: true, run: func(s *experiments.Suite, p string) error { _, err := s.RB(nil, 0.9, p); return err }},
	// gm runs full Algorithm 1 searches at Γ ∈ {0,1,2,3} against the
	// k=1 fault verifier.
	{id: "gm", csv: true, extra: true, run: func(s *experiments.Suite, p string) error { _, err := s.Gamma(nil, 0, 8, p); return err }},
	// fr enumerates the warm ε-constraint front over the default 16-bound
	// grid (one full Algorithm 1 enumeration plus incremental re-solves).
	{id: "fr", csv: true, extra: true, run: func(s *experiments.Suite, p string) error { _, err := s.FR(nil, 0, false, p); return err }},
}

// selectExperiments resolves -exp against the catalog, in catalog order.
// An unknown id is an error, and so is a -csv path that more than one
// selected study would write: their schemas differ, so the last would
// silently overwrite the others.
func selectExperiments(exp, csvPath string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range cli.List(strings.ToLower(exp)) {
		want[id] = true
	}
	all := want["all"]
	delete(want, "all")
	var sel []experiment
	var csvIDs []string
	for _, e := range catalog {
		if want[e.id] || (all && !e.extra) {
			sel = append(sel, e)
			if e.csv {
				csvIDs = append(csvIDs, e.id)
			}
		}
		delete(want, e.id)
	}
	if len(want) > 0 {
		var unknown []string
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown -exp id %s", strings.Join(unknown, ","))
	}
	if csvPath != "" && len(csvIDs) > 1 {
		return nil, fmt.Errorf("-csv is written by one study, but -exp selects %s", strings.Join(csvIDs, ","))
	}
	return sel, nil
}

func main() {
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			cli.Fatal("hibench -cmp", fmt.Errorf("want exactly two arguments: OLD NEW"))
		}
		if err := runBenchCmp(flag.Arg(0), flag.Arg(1), *nsDelta); err != nil {
			cli.Fatal("hibench -cmp", err)
		}
		return
	}
	sel, err := selectExperiments(*expFlag, *csvPath)
	if err != nil {
		cli.Fatal("hibench", err)
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		cli.Fatal("hibench", err)
	}
	fid := fidFlags.Fidelity()
	suite := experiments.NewSuite(fid, os.Stdout)
	eng, err := engFlags.Open(os.Stdout, 0, fid.Sig())
	if err != nil {
		cli.Fatal("hibench", err)
	}
	suite.SetEngine(eng.Engine)

	expSeconds := map[string]float64{}
	for _, e := range sel {
		t0 := time.Now()
		if err := e.run(suite, *csvPath); err != nil {
			cli.Fatal("hibench "+e.id, err)
		}
		elapsed := time.Since(t0)
		expSeconds[e.id] = elapsed.Seconds()
		fmt.Printf("[%s done in %s]\n\n", e.id, elapsed.Round(time.Millisecond))
	}

	if err := eng.Close(); err != nil {
		cli.Fatal("hibench", err)
	}
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, expSeconds); err != nil {
			cli.Fatal("hibench", err)
		}
		fmt.Printf("[bench JSON written to %s]\n", *benchJSON)
	}
	if err := stopProf(); err != nil {
		cli.Fatal("hibench", err)
	}
}
