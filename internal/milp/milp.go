// Package milp implements an exact mixed-integer linear programming solver
// by branch-and-bound over the internal/lp warm-start kernels. Together
// they replace CPLEX in the reproduction of the DAC'17 Human Intranet DSE
// flow.
//
// The solver is a State: one warm kernel attached to one compiled arena
// for its whole life. Beyond a single optimal solution (State.Solve), it
// offers what Algorithm 1 of the paper requires from its MILP oracle:
//
//   - State.SolvePool enumerates the *set* of optimal solutions S
//     (multiple configurations can minimize the approximate power
//     expression Eq. 9), using binary no-good cuts;
//   - callers add pruning cuts between iterations by appending rows to the
//     compiled problem (linexpr.Compiled.AddRow), implementing the
//     Update(P̃, P̄ > P̄*) step.
//
// The clone-per-node reference solver that the State is differentially
// tested against lives in internal/milp/oracle, for tests only.
package milp

import (
	"fmt"
	"math"

	"hiopt/internal/linexpr"
)

// Status describes the outcome of a MILP solve.
type Status int

const (
	// Optimal means a provably optimal integral solution was found.
	Optimal Status = iota
	// Infeasible means no integral solution satisfies the constraints.
	Infeasible
	// Unbounded means the relaxation is unbounded in the optimization
	// direction.
	Unbounded
	// NodeLimit means the node budget ran out before the tree closed.
	NodeLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options tune the branch-and-bound search. The zero value requests
// defaults.
type Options struct {
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// MaxNodes bounds the search-tree size (default 1_000_000).
	MaxNodes int
	// DenseLP forces the dense tableau kernel; SparseLP forces the
	// sparse revised-simplex kernel. With neither set the kernel is
	// chosen by problem size (dense below sparseKernelThreshold
	// rows+vars, sparse above — the crossover where nonzeros-
	// proportional pivots beat cache-resident quadratic updates).
	// Property tests run both kernels and require 1e-9 agreement.
	// DenseLP wins if both are set; either way a distressed dense state
	// switches to the sparse kernel (see State).
	DenseLP  bool
	SparseLP bool
	// Workers fans pool enumeration out as parallel subtree dives
	// (State.SolvePool only). 0 keeps the sequential single-tree path;
	// any value >= 1 uses the deterministic frontier partition, whose
	// enumerated pool is bit-identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	return o
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	// X is the optimal point with integral variables rounded exactly.
	X []float64
	// Objective is the optimal value in the caller's stated direction.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPIterations accumulates simplex pivots over all nodes.
	LPIterations int
	// WarmSolves and ColdSolves count warm-started dual-simplex re-solves
	// vs cold tableau rebuilds.
	WarmSolves int
	ColdSolves int
	// Refactorizations counts sparse-basis LU factorizations (zero on
	// the dense kernel).
	Refactorizations int
	// KernelSwitches counts the dense-to-sparse kernel switches this
	// call's distress ladder made (0 or 1; see State).
	KernelSwitches int
	// PresolveFixed, PresolveDropped, and PresolveTightened report the
	// construction-time presolve reductions of the attached State:
	// implied variable fixings, never-binding rows removed, and
	// tightened row coefficients.
	PresolveFixed     int
	PresolveDropped   int
	PresolveTightened int
	// ParallelDives counts subtree dive tasks executed by the parallel
	// pool enumeration (zero when Workers == 0).
	ParallelDives int
}

// internalMin converts a caller-direction objective value to the internal
// minimization sense of the compiled problem.
func internalMin(p *linexpr.Compiled, v float64) float64 {
	if p.Negated {
		return -v
	}
	return v
}

// callerDir converts an internal minimization value back to the caller's
// direction.
func callerDir(p *linexpr.Compiled, v float64) float64 {
	if p.Negated {
		return -v
	}
	return v
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
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}

// roundIntegral snaps integral variables to the nearest integer.
func roundIntegral(p *linexpr.Compiled, x []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// PoolSolution is one member of an optimal-solution pool.
type PoolSolution struct {
	X         []float64
	Objective float64
}

// CheckFeasible verifies that x satisfies every row, bound, and
// integrality requirement of p within tol, returning a descriptive error
// for the first violation. It is used by tests and by defensive assertions
// in the DSE core.
func CheckFeasible(p *linexpr.Compiled, x []float64, tol float64) error {
	if len(x) != p.NumVars {
		return fmt.Errorf("milp: solution has %d vars, want %d", len(x), p.NumVars)
	}
	for j := 0; j < p.NumVars; j++ {
		if x[j] < p.Lo[j]-tol || x[j] > p.Hi[j]+tol {
			return fmt.Errorf("milp: %s = %g outside [%g, %g]", p.Names[j], x[j], p.Lo[j], p.Hi[j])
		}
		if p.Integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return fmt.Errorf("milp: %s = %g not integral", p.Names[j], x[j])
		}
	}
	for _, r := range p.Rows {
		lhs := 0.0
		for j, c := range r.Coefs {
			lhs += c * x[j]
		}
		switch r.Sense {
		case linexpr.LE:
			if lhs > r.RHS+tol {
				return fmt.Errorf("milp: row %q violated: %g <= %g", r.Name, lhs, r.RHS)
			}
		case linexpr.GE:
			if lhs < r.RHS-tol {
				return fmt.Errorf("milp: row %q violated: %g >= %g", r.Name, lhs, r.RHS)
			}
		case linexpr.EQ:
			if math.Abs(lhs-r.RHS) > tol {
				return fmt.Errorf("milp: row %q violated: %g == %g", r.Name, lhs, r.RHS)
			}
		}
	}
	return nil
}
