package main

import (
	"errors"
	"testing"
	"time"

	"hiopt/internal/core"
	"hiopt/internal/design"
	"hiopt/internal/milp"
)

func ms(a, b int) span {
	return span{start: time.Duration(a) * time.Millisecond, end: time.Duration(b) * time.Millisecond}
}

func TestCoveredMergesOverlapsAndClipsToParent(t *testing.T) {
	root := ms(0, 100)
	for _, tc := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []span{ms(10, 20), ms(30, 50)}, 30 * time.Millisecond},
		{"overlapping", []span{ms(10, 40), ms(30, 60)}, 50 * time.Millisecond},
		{"nested", []span{ms(10, 80), ms(20, 30)}, 70 * time.Millisecond},
		{"clipped", []span{ms(-20, 10), ms(90, 130)}, 20 * time.Millisecond},
		{"outside", []span{ms(120, 150)}, 0},
	} {
		got := covered(root, tc.kids)
		if got != tc.want {
			t.Errorf("%s: covered = %v, want %v", tc.name, got, tc.want)
		}
		if self := selfTime(root, tc.kids); self != root.dur()-tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, self, root.dur()-tc.want)
		}
	}
}

func TestRelayLaysReplayBackToBack(t *testing.T) {
	root := ms(1000, 1100)
	// Replayed after the real call, at arbitrary times.
	kids := relay(root, []span{ms(5000, 5030), ms(6000, 6020), ms(7000, 7010)})
	want := []span{ms(1000, 1030), ms(1030, 1050), ms(1050, 1060)}
	for i := range want {
		if kids[i].start != want[i].start || kids[i].end != want[i].end {
			t.Errorf("kid %d at [%v, %v], want [%v, %v]", i, kids[i].start, kids[i].end, want[i].start, want[i].end)
		}
	}
	if c := covered(root, kids); c != 60*time.Millisecond {
		t.Errorf("coverage %v, want 60ms", c)
	}
	// A replay longer than the real call covers it fully, never more.
	long := relay(root, []span{ms(0, 80), ms(0, 80)})
	if c := covered(root, long); c != root.dur() {
		t.Errorf("over-long replay covers %v, want %v", c, root.dur())
	}
}

func TestReportSplitsRootTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{id: 0, parent: -1, name: "core.run", start: 0, end: 100 * time.Millisecond},
		{id: 1, parent: 0, name: "milp.solve_pool", start: 500 * time.Millisecond, end: 560 * time.Millisecond},
		{id: 2, parent: 0, name: "engine.batch", start: 600 * time.Millisecond, end: 630 * time.Millisecond},
	}
	res := &result{}
	(&layers{untracedS: 0.08}).report(res, tr, []int{0}, true, nil)
	got := map[string]float64{}
	for _, m := range res.metrics {
		got[m.name] = m.value
	}
	for name, want := range map[string]float64{
		"core.run_s": 0.1, "core.self_s": 0.01, "milp.solve_s": 0.06, "engine.batch_s": 0.03,
		"trace.coverage": 0.9, "trace.overhead_frac": 0.25,
	} {
		if d := got[name] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestReportOnReplayMismatchGivesCoverageOnly(t *testing.T) {
	tr := &tracer{spans: []span{{id: 0, parent: -1, name: "core.run", end: time.Second}}}
	res := &result{}
	(&layers{}).report(res, tr, []int{0}, true, errors.New("replay mismatch"))
	if len(res.metrics) != 1 || res.metrics[0].name != "trace.coverage" || len(res.problems) != 1 {
		t.Fatalf("metrics %v problems %v", res.metrics, res.problems)
	}
}

func TestDecoderMatchesCoreFirstPool(t *testing.T) {
	pr := design.PaperProblem(0.9)
	want, err := core.FirstPool(pr)
	if err != nil {
		t.Fatal(err)
	}
	work, _, err := core.CompileMILP(pr)
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := milp.NewState(work, milp.Options{}).SolvePool(0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	dec := newDecoder(work.Names)
	var got []design.Point
	for _, ps := range pool {
		got = append(got, dec.point(ps.X))
	}
	if len(want) == 0 || !samePoints(got, want) {
		t.Fatalf("decoded pool %v, core's %v", got, want)
	}
}
