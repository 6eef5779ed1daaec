package milp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/rng"
)

// randomPoolMILP builds a binary MILP with deliberately clustered
// objective coefficients so optimum ties — and therefore multi-member
// pools — are common.
func randomPoolMILP(seed uint64, nv, nc int) *linexpr.Compiled {
	g := rng.NewSource(seed).Stream("parpool")
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, nv)
	for i := range ids {
		ids[i] = m.Binary("")
	}
	for r := 0; r < nc; r++ {
		e := linexpr.Expr{}
		for _, id := range ids {
			if g.Uniform(0, 1) < 0.5 {
				e = e.PlusTerm(id, float64(int(g.Uniform(-3, 4))))
			}
		}
		sense := linexpr.LE
		if g.Uniform(0, 1) < 0.3 {
			sense = linexpr.GE
		}
		m.Add("", e, sense, float64(int(g.Uniform(-2, 5))))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		// Coefficients from a small integer lattice: ties abound.
		obj = obj.PlusTerm(id, float64(int(g.Uniform(-2, 3))))
	}
	m.SetObjective(obj, g.Uniform(0, 1) < 0.3)
	return m.Compile()
}

func parallelPoolKey(pool []PoolSolution) string {
	var sb strings.Builder
	for _, ps := range pool {
		for _, v := range ps.X {
			if v > 0.5 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		fmt.Fprintf(&sb, ":%.12g|", ps.Objective)
	}
	return sb.String()
}

func sortedSetKeys(pool []PoolSolution) []string {
	keys := make([]string, len(pool))
	for i, ps := range pool {
		var sb strings.Builder
		for _, v := range ps.X {
			if v > 0.5 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}

// TestParallelPoolDeterministicAcrossWorkers is the PR's determinism
// contract: the enumerated pool — members AND order — is bit-identical
// for Workers ∈ {1, 4, GOMAXPROCS}, and equals the sequential pool as a
// set. It runs on both kernels: the sparse one warm-starts dives from
// shipped basis snapshots, the dense one dives cold, and neither may
// affect the result.
func TestParallelPoolDeterministicAcrossWorkers(t *testing.T) {
	for _, kc := range []struct {
		name string
		opt  Options
	}{
		{"sparse", Options{SparseLP: true}},
		{"dense", Options{DenseLP: true}},
	} {
		t.Run(kc.name, func(t *testing.T) { parallelDeterminismTest(t, kc.opt) })
	}
}

func parallelDeterminismTest(t *testing.T, base Options) {
	workerSets := []int{1, 4, runtime.GOMAXPROCS(0)}
	for seed := uint64(1); seed <= 60; seed++ {
		p := randomPoolMILP(seed, 9, 7)

		seqPool, seqAgg, err := NewState(p.Clone(), base).SolvePool(0, 1e-6)
		if err != nil {
			t.Fatal(err)
		}

		var ref string
		var refPool []PoolSolution
		for wi, w := range workerSets {
			opt := base
			opt.Workers = w
			st := NewState(p.Clone(), opt)
			pool, agg, err := st.SolvePool(0, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Status != seqAgg.Status {
				t.Fatalf("seed %d workers %d: status %v, sequential %v", seed, w, agg.Status, seqAgg.Status)
			}
			if seqAgg.Status != Optimal {
				break
			}
			if math.Abs(agg.Objective-seqAgg.Objective) > 1e-9*(1+math.Abs(seqAgg.Objective)) {
				t.Fatalf("seed %d workers %d: obj %.12g, sequential %.12g", seed, w, agg.Objective, seqAgg.Objective)
			}
			if agg.ParallelDives == 0 {
				t.Fatalf("seed %d workers %d: no parallel dives recorded", seed, w)
			}
			key := parallelPoolKey(pool)
			if wi == 0 {
				ref, refPool = key, pool
			} else if key != ref {
				t.Fatalf("seed %d: pool differs between workers=1 and workers=%d:\n%s\nvs\n%s", seed, w, ref, key)
			}
		}
		if seqAgg.Status != Optimal {
			continue
		}
		sk, pk := sortedSetKeys(seqPool), sortedSetKeys(refPool)
		if len(sk) != len(pk) {
			t.Fatalf("seed %d: parallel pool has %d members, sequential %d\nseq %v\npar %v",
				seed, len(pk), len(sk), sk, pk)
		}
		for i := range sk {
			if sk[i] != pk[i] {
				t.Fatalf("seed %d member %d: %s (sequential) vs %s (parallel)", seed, i, sk[i], pk[i])
			}
		}
	}
}
