// Package lp implements the warm-started bounded-variable dual-simplex
// kernels of the reproduction's MILP stack (the CPLEX substitute):
// internal/milp drives them from branch-and-bound nodes. Two kernels
// satisfy the Kernel interface — the dense-tableau Solver (warm.go) and
// the sparse revised-simplex SparseSolver (sparse.go) — and both accept
// problems in the matrix form produced by internal/linexpr (mixed
// <=/>=/= rows, finite variable bounds).
package lp

import "fmt"

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterationLimit means the pivot budget was exhausted or the warm
	// basis went numerically stale (see SolverStats.StaleRebuilds).
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X is the optimal point in the original variable space (only valid
	// when Status == Optimal).
	X []float64
	// Objective is the optimal objective value in the *caller's* stated
	// direction: if the compiled problem was a negated maximization,
	// Objective is the maximal value.
	Objective float64
	// ShadowPrices holds one dual value per original constraint row: the
	// rate of change of the (caller-direction) optimal objective per
	// unit increase of that row's right-hand side. Zero for non-binding
	// rows. Only valid when Status == Optimal.
	ShadowPrices []float64
	// Iterations counts simplex pivots.
	Iterations int
}

// Tolerance is the feasibility/optimality tolerance used throughout.
const Tolerance = 1e-9
