// Command perfbench is the repository's end-to-end benchmark: it runs one
// seeded workload of the design flow in-process (or, with -workload all,
// each in turn), checks its outputs, and prints every metric by name,
// unit and sample count. The last line of standard output is one JSON
// object (metric names prefixed by workload under -workload all):
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of BENCHMARK.json;
// with -trace 1 the run replays the same work through each layer's public
// functions and reports the per-layer figures instead. See README.md for
// the workloads and what each metric means.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload r1_quick --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one benchmark input set. run measures the end-to-end
// figures for about seconds of wall time; trace replays the work through
// the layers and reports per-layer figures.
type workload struct {
	name  string
	run   func(seed uint64, seconds float64) *result
	trace func(seed uint64, seconds float64) *result
}

var workloads = []workload{
	{"r1_quick", runR1, traceR1},
	{"f3_quick", runF3, traceF3},
	{"serve_mix", runServe, traceServe},
}

// result is what one benchmark run reports.
type result struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	// metrics go into the JSON line; extra are printed only (figures
	// that exist for one workload alone, can legitimately be 0, or are
	// too unsteady to gate).
	metrics []metric
	extra   []metric
	// spans are a traced run's recorded spans, written out at the end.
	spans []span
}

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// settle fails the run for every metric without a value and makes a run
// with a failed check count at least one failed operation.
func (r *result) settle() {
	for i, m := range r.metrics {
		// A figure with no samples (e.g. no successful request) has no
		// value: report 0 rather than print NaN, which JSON cannot hold.
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.checkf(false, "%s: no value (n=%d)", m.name, m.n)
			r.metrics[i].value = 0
		}
	}
	if r.failed == 0 && len(r.problems) > 0 {
		r.failed = 1
	}
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// workers is the engine worker count and the serve_mix connection cap.
func workers() int { return runtime.NumCPU() }

func main() {
	name := flag.String("workload", "", "workload: r1_quick, f3_quick, serve_mix, or all (each in turn)")
	seed := flag.Uint64("seed", 1, "workload seed (1 is the default whose outputs are pinned)")
	seconds := flag.Float64("seconds", 20, "measured wall time per run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || w.name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	total := &result{}
	for _, w := range selected {
		run := w.run
		if *trace == 1 {
			run = w.trace
		}
		res := run(*seed, *seconds)
		res.settle()
		if *trace == 0 {
			// Process-wide: with -workload all it is the peak so far.
			res.extra = append(res.extra, metric{name: "mem_peak_mb", unit: "MB", value: peakRSSMB(), n: 1})
		}
		res.extra = append(res.extra, metric{name: "fail_frac", unit: "fraction",
			value: ratio(float64(res.failed), float64(res.attempted)), n: res.attempted})
		fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d workers=%d\n", w.name, *seed, *seconds, *trace, workers())
		for _, m := range res.metrics {
			fmt.Println("  " + m.String())
		}
		for _, m := range res.extra {
			fmt.Println("  " + m.String() + "  (report only)")
		}
		for _, p := range res.problems {
			fmt.Println("  CHECK FAILED: " + p)
		}
		if len(res.spans) > 0 {
			// Beside the build outputs, which stay out of version control.
			dir := os.Getenv("CARGO_TARGET_DIR")
			if dir == "" {
				dir = ".bench_build"
			}
			path := filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-%d.jsonl", w.name, *seed))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
			} else if err := writeSpans(path, res.spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
			} else {
				fmt.Printf("  %d spans written to %s\n", len(res.spans), path)
			}
		}
		total.attempted += res.attempted
		total.failed += res.failed
		total.problems = append(total.problems, res.problems...)
		for _, m := range res.metrics {
			if len(selected) > 1 {
				m.name = w.name + "." + m.name
			}
			total.metrics = append(total.metrics, m)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(total.problems) == 0 && total.failed == 0,
		"attempted": max(total.attempted, 1),
		"failed":    total.failed,
		"metrics":   jsonMetrics(total.metrics),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if total.failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: "+strings.Join(total.problems, "; "))
		os.Exit(1)
	}
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
