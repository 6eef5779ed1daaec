package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // unsorted on purpose
	}
	return v
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, capPct, want int
		ok              bool
	}{
		{1000, 99, 99, true}, // 10 beyond p99
		{999, 99, 95, true},  // 9 beyond p99: fall back
		{100, 90, 90, true},  // exactly 10 beyond
		{99, 90, 80, true},   // 9 beyond p90
		{50, 90, 80, true},   // 10 beyond p80
		{20, 90, 50, true},   // only the median qualifies
		{19, 90, 0, false},   // nothing qualifies
		{1000, 90, 90, true}, // never above the cap
	} {
		pct, _, ok := tail(seq(tc.n), tc.capPct)
		if pct != tc.want || ok != tc.ok {
			t.Errorf("n=%d cap=p%d: got p%d ok=%v, want p%d ok=%v", tc.n, tc.capPct, pct, ok, tc.want, tc.ok)
		}
	}
}

func TestTailValueInterpolates(t *testing.T) {
	_, v, _ := tail(seq(101), 90) // values 1..101: p90 sits exactly on 91
	if v != 91 {
		t.Fatalf("p90 of 1..101 = %v, want 91", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestTailMetricPrintsCountAndPercentile(t *testing.T) {
	full := tailMetric("ttd_p90_ms", "ms", seq(100), 90).String()
	if !strings.Contains(full, "n=100") || strings.Contains(full, "reported at") {
		t.Errorf("p90 with 100 samples: %q", full)
	}
	low := tailMetric("ttd_p90_ms", "ms", seq(60), 90).String()
	if !strings.Contains(low, "n=60") || !strings.Contains(low, "reported at p80") {
		t.Errorf("p90 with 60 samples: %q", low)
	}
	none := tailMetric("ttd_p90_ms", "ms", seq(5), 90)
	if !math.IsNaN(none.value) || !strings.Contains(none.String(), "too few samples") {
		t.Errorf("p90 with 5 samples: %q", none.String())
	}
}

func TestSettleFailsAMetricWithoutValue(t *testing.T) {
	res := &result{attempted: 3}
	res.add("ttd_p50_ms", "ms", median(nil), 0)
	res.add("setup_s", "s", 0.5, 15)
	res.settle()
	if res.metrics[0].value != 0 || res.metrics[1].value != 0.5 {
		t.Fatalf("metrics after settle: %+v", res.metrics)
	}
	if len(res.problems) != 1 || res.failed != 1 {
		t.Fatalf("problems %q, failed %d: want one problem and one failure", res.problems, res.failed)
	}
}
