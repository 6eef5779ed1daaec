package experiments

import (
	"fmt"

	"hiopt/internal/core"
	"hiopt/internal/report"
)

// FR runs the warm ε-constraint front study: one core.ParetoSweep over
// the reliability bounds (DefaultSweepBounds when empty), reporting each
// bound's optimum with its latency profile, the incremental re-solve
// price per point, and the non-dominated front. latMax > 0 adds the p95
// latency ε constraint; cold switches to the independent-cold-runs
// baseline (same front, full MILP price — the A/B behind the
// pareto_warm_front benchmark); csvPath, when non-empty, receives the
// front as CSV. The Suite.Adaptive flag gates replication spending to
// the swept band. The sweep shares the suite engine, so the engine line
// reports only this study's delta — it is printed even when the CSV
// redirects, same as the robustness studies.
func (s *Suite) FR(bounds []float64, latMax float64, cold bool, csvPath string) (*core.SweepResult, error) {
	mode := "warm ε-retarget"
	if cold {
		mode = "cold per-bound baseline"
	}
	fmt.Fprintf(s.W, "FR — extension: ε-constraint NLT/PDR/latency front (%s)\n", mode)
	res, err := core.ParetoSweep(s.problem(0.5), core.SweepOptions{
		Bounds:     bounds,
		LatencyMax: latMax,
		Cold:       cold,
		Adaptive:   s.Adaptive,
		Options:    core.Options{Engine: s.engine()},
	})
	if err != nil {
		return nil, err
	}
	var tbl [][]string
	for _, pt := range res.Points {
		front := ""
		if !pt.Dominated {
			front = "*"
		}
		if pt.Best == nil {
			tbl = append(tbl, []string{report.Pct(pt.PDRMin), "infeasible", "", "", "", "",
				fmt.Sprintf("%d", pt.LPIterations), front})
			continue
		}
		tbl = append(tbl, []string{
			report.Pct(pt.PDRMin), pointLabel(pt.Best.Point),
			report.Pct(pt.Best.PDR), report.Days(pt.Best.NLTDays),
			report.MW(pt.Best.PowerMW),
			fmt.Sprintf("%.2f ms", pt.Best.P95Latency*1000),
			fmt.Sprintf("%d", pt.LPIterations), front,
		})
	}
	report.Table(s.W, []string{"PDRmin", "configuration", "PDR", "NLT", "power",
		"p95 latency", "pivots", "front"}, tbl)
	fmt.Fprintf(s.W, "  front: %d of %d points non-dominated\n", len(res.Front()), len(res.Points))
	fmt.Fprintf(s.W, "  MILP effort: %d pivots, %d nodes (%d warm re-solves, %d cold solves)\n",
		res.LPIterations, res.MILPNodes, res.MILPWarmSolves, res.MILPColdSolves)
	fmt.Fprintf(s.W, "  evaluation sharing: %d evaluations for %d candidate scorings (fresh-eval fraction %s)\n",
		res.Evaluations, res.CandidateUses, report.Pct(res.FreshEvalFrac()))
	if res.RepsSaved > 0 {
		fmt.Fprintf(s.W, "  adaptive: %d replications avoided\n", res.RepsSaved)
	}
	fmt.Fprintf(s.W, "  engine: %s\n", res.Engine)

	if csvPath != "" {
		var csvRows [][]string
		for _, pt := range res.Points {
			row := []string{report.F(pt.PDRMin, 6), fmt.Sprintf("%v", pt.Best != nil)}
			if pt.Best != nil {
				row = append(row,
					fmt.Sprintf("%v", pt.Best.Point.Locations()),
					pt.Best.Point.Routing.String(), pt.Best.Point.MAC.String(),
					fmt.Sprintf("%d", pt.Best.Point.TxMode),
					report.F(pt.Best.PDR, 6), report.F(pt.Best.NLTDays, 4),
					report.F(pt.Best.PowerMW, 6),
					report.F(pt.Best.MeanLatency, 8), report.F(pt.Best.P95Latency, 8),
				)
			} else {
				row = append(row, "", "", "", "", "", "", "", "", "")
			}
			row = append(row, fmt.Sprintf("%d", pt.LPIterations), fmt.Sprintf("%v", pt.Dominated))
			csvRows = append(csvRows, row)
		}
		header := []string{"pdr_min", "feasible", "locations", "routing", "mac", "txmode",
			"pdr", "nlt_days", "power_mw", "mean_latency_s", "p95_latency_s",
			"lp_pivots", "dominated"}
		if err := report.CSVFile(csvPath, header, csvRows); err != nil {
			return nil, err
		}
		fmt.Fprintf(s.W, "  ε-constraint front written to %s\n", csvPath)
	}
	return res, nil
}
