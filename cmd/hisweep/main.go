// Command hisweep simulates the entire feasible design space of the §4.1
// design example and emits the PDR-versus-lifetime scatter of the paper's
// Figure 3, as an aligned table and optionally as CSV for plotting.
//
// Usage:
//
//	hisweep -csv fig3.csv             # quick fidelity sweep
//	hisweep -paper -csv fig3_full.csv # the paper's 600 s × 3 runs
//	hisweep -robust -kfail 1,2 -robustcsv rb.csv  # nominal-vs-robust comparison
//	hisweep -gamma 0,1,2,3 -gammacsv gamma.csv    # Γ-robust price curve
//	hisweep -pareto -paretocsv front.csv          # warm ε-constraint NLT/PDR/latency front
//
// -pareto replaces the Figure 3 exhaustive sweep with the ε-constraint
// front study (the sweep's warm-path sharing numbers would be
// meaningless against an engine pre-filled by exhaustion); -bounds,
// -latmax, and -paretocold refine it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hiopt/cmd/internal/cli"
	"hiopt/internal/experiments"
)

var (
	fidFlags   = cli.AddFidelity(flag.CommandLine)
	csvPath    = flag.String("csv", "", "write the scatter to this CSV file")
	robust     = flag.Bool("robust", false, "also run the nominal-vs-robust comparison under k-node failures")
	kfail      = flag.String("kfail", "1,2", "comma-separated failure counts k for -robust")
	pdrMin     = flag.Float64("pdrmin", 0.9, "reliability bound of the -robust comparison")
	robustCSV  = flag.String("robustcsv", "", "write the -robust comparison to this CSV file")
	gamma      = flag.String("gamma", "", "comma-separated Γ protection budgets: run the Γ-robust price-curve study (e.g. 0,1,2,3)")
	gammaCSV   = flag.String("gammacsv", "", "write the Γ price curve to this CSV file")
	gammaIter  = flag.Int("gammaiter", 8, "Algorithm 1 iteration cap per Γ point (0 = unlimited)")
	robustMin  = flag.Float64("robustpdrmin", 0, "robust reliability floor of the -gamma study (0 = the attainable default)")
	pareto     = flag.Bool("pareto", false, "run the warm ε-constraint NLT/PDR/latency front study instead of the Figure 3 sweep")
	paretoCSV  = flag.String("paretocsv", "", "write the ε-constraint front to this CSV file")
	boundsFlag = flag.String("bounds", "", "comma-separated PDRmin bounds of the -pareto sweep (empty = the default 16-point grid)")
	latMax     = flag.Float64("latmax", 0, "p95 end-to-end latency bound in seconds for -pareto (0 = unbounded)")
	paretoCold = flag.Bool("paretocold", false, "run the -pareto sweep as independent cold per-bound solves (the A/B baseline)")
	adaptive   = flag.Bool("adaptive", false, "confidence-gated adaptive evaluation in the -robust comparison and the -pareto sweep (short-circuits decisively infeasible scenario families; gates replications to the swept band)")
	engFlags   = cli.AddEngine(flag.CommandLine, "persistent result cache: load completed simulations from this file and append fresh ones, so a repeated sweep at the same fidelity starts warm")
	profFlags  = cli.AddProfile(flag.CommandLine)
)

func main() {
	flag.Parse()
	bounds, err := cli.Floats("bounds", *boundsFlag, func(b float64) bool { return b > 0 && b <= 1 })
	if err != nil {
		cli.Fatal("hisweep", err)
	}
	ks, err := cli.Ints("kfail", *kfail, func(k int) bool { return k > 0 })
	if err != nil {
		cli.Fatal("hisweep", err)
	}
	gammas, err := cli.Floats("gamma", *gamma, func(g float64) bool { return g >= 0 })
	if err != nil {
		cli.Fatal("hisweep", err)
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		cli.Fatal("hisweep", err)
	}

	fid := fidFlags.Fidelity()
	t0 := time.Now()
	suite := experiments.NewSuite(fid, os.Stdout)
	suite.Adaptive = *adaptive
	eng, err := engFlags.Open(os.Stdout, 0, fid.Sig())
	if err != nil {
		cli.Fatal("hisweep", err)
	}
	suite.SetEngine(eng.Engine)
	if *pareto {
		_, err = suite.FR(bounds, *latMax, *paretoCold, *paretoCSV)
	} else {
		_, err = suite.Fig3(*csvPath)
	}
	if err == nil && *robust {
		_, err = suite.RB(ks, *pdrMin, *robustCSV)
	}
	if err == nil && *gamma != "" {
		_, err = suite.Gamma(gammas, *robustMin, *gammaIter, *gammaCSV)
	}
	if err != nil {
		cli.Fatal("hisweep", err)
	}
	// Totals across every study above, printed to the terminal even when
	// -csv/-robustcsv/-gammacsv redirected the tables.
	if err := eng.Close(); err != nil {
		cli.Fatal("hisweep", err)
	}
	fmt.Printf("sweep completed in %s\n", time.Since(t0).Round(time.Millisecond))
	if err := stopProf(); err != nil {
		cli.Fatal("hisweep", err)
	}
}
