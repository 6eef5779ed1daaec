package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the linear-interpolation quantile of sorted values (the
// "inclusive" rule: q=0 is the minimum, q=1 the maximum).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of unsorted values (NaN when empty).
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []int{99, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer than that and the percentile is one or two samples' noise.
const minBeyond = 10

// tail reports the highest percentile, no higher than capPct, that has at
// least minBeyond samples beyond it, with its value. ok is false when even
// the median lacks minBeyond samples beyond it (fewer than 20 samples).
func tail(v []float64, capPct int) (pct int, value float64, ok bool) {
	s := sortedCopy(v)
	for _, p := range tailPercentiles {
		if p > capPct {
			continue
		}
		beyond := len(s) - int(math.Ceil(float64(p)/100*float64(len(s))))
		if beyond >= minBeyond {
			return p, quantile(s, float64(p)/100), true
		}
	}
	return 0, math.NaN(), false
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	// note qualifies the figure in the human-readable report (e.g. the
	// percentile actually reported when the sample count forces a lower
	// one).
	note string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-24s %14.6g %-10s n=%d", m.name, m.value, m.unit, m.n)
	if m.note != "" {
		s += "  " + m.note
	}
	return s
}

// tailMetric reports the p<capPct> of v under the minBeyond rule: when the
// samples are too few for capPct, the highest percentile that qualifies is
// reported instead and named in the note.
func tailMetric(name, unit string, v []float64, capPct int) metric {
	pct, val, ok := tail(v, capPct)
	m := metric{name: name, unit: unit, value: val, n: len(v)}
	switch {
	case !ok:
		m.note = "too few samples for any percentile"
	case pct != capPct:
		m.note = fmt.Sprintf("reported at p%d (n too small for p%d)", pct, capPct)
	}
	return m
}
