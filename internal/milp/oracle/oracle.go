// Package oracle is the test-only reference MILP stack: a clone-per-node
// best-first branch-and-bound over a dense two-phase primal simplex, and
// the repeated-argmin solution pool built on binary no-good cuts. It
// shares no solving code with milp.State or the warm lp kernels — every
// node clones the problem and re-solves its relaxation from scratch — so
// agreement with it is independent evidence that the production warm
// path is exact.
//
// Only _test.go files may import this package; a guard test in this
// package parses every non-test file of the module and fails on any
// production import.
package oracle

import (
	"container/heap"
	"fmt"
	"math"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/milp"
)

// node is one open branch-and-bound subproblem.
type node struct {
	prob  *linexpr.Compiled
	bound float64 // LP relaxation value (internal minimization sense)
	x     []float64
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// internalMin converts between the caller's objective direction and the
// internal minimization sense of the compiled problem (the map is its own
// inverse).
func internalMin(p *linexpr.Compiled, v float64) float64 {
	if p.Negated {
		return -v
	}
	return v
}

// Solve finds an optimal integral solution of p by best-first
// branch-and-bound. p is not modified. Only IntTol and MaxNodes of opt
// apply.
func Solve(p *linexpr.Compiled, opt milp.Options) (*milp.Solution, error) {
	if opt.IntTol == 0 {
		opt.IntTol = 1e-6
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 1_000_000
	}
	sol := &milp.Solution{Status: milp.Infeasible}

	root, err := SolveLP(p)
	if err != nil {
		return nil, err
	}
	sol.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return sol, nil
	case lp.Unbounded:
		sol.Status = milp.Unbounded
		return sol, nil
	case lp.IterationLimit:
		return nil, fmt.Errorf("oracle: root LP hit iteration limit")
	}

	q := &nodeQueue{{prob: p, bound: internalMin(p, root.Objective), x: root.X}}
	heap.Init(q)

	best := math.Inf(1) // incumbent internal-min value
	var bestX []float64

	for q.Len() > 0 {
		if sol.Nodes >= opt.MaxNodes {
			sol.Status = milp.NodeLimit
			break
		}
		nd := heap.Pop(q).(*node)
		sol.Nodes++
		if nd.bound >= best-1e-9 {
			// Best-first: all remaining nodes are at least as bad.
			break
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			// Integral: candidate incumbent.
			if nd.bound < best-1e-9 {
				best = nd.bound
				bestX = roundIntegral(p, nd.x)
			}
			continue
		}
		v := nd.x[frac]
		floorChild := nd.prob.Clone()
		floorChild.Hi[frac] = math.Floor(v)
		ceilChild := nd.prob.Clone()
		ceilChild.Lo[frac] = math.Ceil(v)
		for _, child := range []*linexpr.Compiled{floorChild, ceilChild} {
			cs, err := SolveLP(child)
			if err != nil {
				return nil, err
			}
			sol.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				b := internalMin(p, cs.Objective)
				if b < best-1e-9 {
					heap.Push(q, &node{prob: child, bound: b, x: cs.X})
				}
			case lp.Infeasible:
				// prune
			case lp.Unbounded:
				// A bounded-below parent cannot yield an unbounded child;
				// treat defensively as an error.
				return nil, fmt.Errorf("oracle: child LP unbounded under bounded parent")
			case lp.IterationLimit:
				return nil, fmt.Errorf("oracle: child LP hit iteration limit")
			}
		}
	}

	if bestX != nil {
		if sol.Status != milp.NodeLimit {
			sol.Status = milp.Optimal
		}
		sol.X = bestX
		sol.Objective = internalMin(p, best)
	}
	return sol, nil
}

// mostFractional returns the index of the integral variable whose LP value
// is farthest from an integer, or -1 if all integral variables are within
// tol of integrality.
func mostFractional(p *linexpr.Compiled, x []float64, tol float64) int {
	best, bestDist := -1, tol
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if dist := math.Min(f, 1-f); dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}

// roundIntegral snaps integral variables to the nearest integer.
func roundIntegral(p *linexpr.Compiled, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// SolvePool enumerates optimal solutions of p: all integral solutions whose
// objective is within objTol of the optimum, up to limit entries (limit <=
// 0 means unlimited). It requires every integral variable to be binary,
// because enumeration uses binary no-good cuts. Each member is a fresh
// Solve of p plus the cuts so far, so the pool is discovered in
// nondecreasing objective order; the Solution carries aggregate
// statistics and the status of the *first* solve. p is not modified.
func SolvePool(p *linexpr.Compiled, opt milp.Options, limit int, objTol float64) ([]milp.PoolSolution, *milp.Solution, error) {
	if opt.IntTol == 0 {
		opt.IntTol = 1e-6
	}
	if objTol <= 0 {
		objTol = 1e-6
	}
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] && (p.Lo[j] < -opt.IntTol || p.Hi[j] > 1+opt.IntTol) {
			return nil, nil, fmt.Errorf("oracle: SolvePool requires binary integral variables; %q has bounds [%g,%g]",
				p.Names[j], p.Lo[j], p.Hi[j])
		}
	}

	work := p.Clone()
	agg := &milp.Solution{Status: milp.Infeasible}
	var pool []milp.PoolSolution
	bestInternal := math.Inf(1)
	for iter := 0; ; iter++ {
		s, err := Solve(work, opt)
		if err != nil {
			return nil, nil, err
		}
		agg.Nodes += s.Nodes
		agg.LPIterations += s.LPIterations
		if iter == 0 {
			agg.Status = s.Status
			if s.Status == milp.Optimal {
				agg.X = s.X
				agg.Objective = s.Objective
				bestInternal = internalMin(p, s.Objective)
				// Bound the objective at the optimum: subsequent pool
				// solves become feasibility searches, letting
				// branch-and-bound prune any node whose relaxation
				// exceeds the known optimal value immediately.
				coefs := append([]float64(nil), work.Obj...)
				work.AddRow("pool_obj_bound", coefs, linexpr.LE, bestInternal-work.ObjConst+objTol)
			}
		}
		if s.Status != milp.Optimal {
			break
		}
		if internalMin(p, s.Objective) > bestInternal+objTol {
			break // objective degraded: pool complete
		}
		pool = append(pool, milp.PoolSolution{X: s.X, Objective: s.Objective})
		if limit > 0 && len(pool) >= limit {
			break
		}
		addNoGoodCut(work, s.X, fmt.Sprintf("nogood_%d", iter))
	}
	return pool, agg, nil
}

// addNoGoodCut appends a cut excluding the binary assignment x̂ from the
// feasible set: Σ_{x̂_j=0} x_j + Σ_{x̂_j=1} (1-x_j) >= 1.
func addNoGoodCut(p *linexpr.Compiled, xhat []float64, name string) {
	coefs := make([]float64, p.NumVars)
	ones := 0
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		if xhat[j] > 0.5 {
			coefs[j] = -1
			ones++
		} else {
			coefs[j] = 1
		}
	}
	p.AddRow(name, coefs, linexpr.GE, float64(1-ones))
}
