package milp

import (
	"errors"
	"fmt"
	"math"

	"hiopt/internal/linexpr"
	"hiopt/internal/lp"
	"hiopt/internal/lp/presolve"
)

// State is a persistent warm-started MILP solver attached to one compiled
// arena problem. Where a textbook branch-and-bound clones the problem at
// every node and re-runs a two-phase primal simplex from scratch (the
// test-only reference in internal/milp/oracle), a State keeps a single
// lp.Kernel whose basis survives across nodes, SolvePool iterations, and
// caller-appended pruning cuts:
//
//   - branch nodes are bound diffs — each node records only the branching
//     bounds it changes relative to the root, applied and reverted against
//     the shared solver by a longest-common-prefix transition;
//   - every node re-solve is a dual-simplex warm start from the parent
//     basis (bound changes and appended rows preserve dual feasibility);
//   - the pool protocol reuses one objective-bound row across SolvePool
//     calls (RHS-retargeted, never re-added) and retires its no-good cuts
//     at the end of each call so the arena stays feasible for every
//     returned pool member.
//
// Rows the protocol adds to the arena are born with a provably loose RHS
// and only tightened inside the solver, so CheckFeasible against the
// arena is never affected.
//
// Every solving call runs under a distress ladder. A call is distressed
// when the kernel's StaleRebuilds counter moves during it (a drifted
// basis may have closed live subtrees before validation caught it) or
// when a warm re-solve fails outright. A distressed call is discarded
// and redone on a fresh solver; a second distress on the dense kernel
// switches the State to the sparse kernel for the rest of its life
// (Solution.KernelSwitches records it); a distressed fresh sparse
// attempt is redone once more with every warm Infeasible answer
// cold-confirmed, and a failure there is returned as an error. Results
// are therefore exact or absent, never silently degraded.
//
// A State is not safe for concurrent use.
type State struct {
	p    *linexpr.Compiled
	opt  Options
	sv   lp.Kernel
	kind KernelKind // the kernel sv is

	// err is the construction error of an arena no kernel can host (a
	// variable with an infinite bound, lp.ErrUnboundedVar); every
	// solving call returns it.
	err error
	// confirm marks the distress ladder's last rung, for one call: the
	// sparse kernel (and every parallel dive's) cold-confirms each warm
	// Infeasible answer, so stale events no longer taint the call.
	confirm bool

	// Bound-diff bookkeeping: the diff path currently applied to sv and
	// the bounds to restore when reverting each entry.
	applied []bdiff
	undo    []bdiff

	// Pool protocol state. objRow is the arena index of the shared
	// objective-bound row (-1 until the first pool call); looseObj is its
	// resting RHS. retired holds arena indices of loosened no-good rows
	// not yet dropped from the tableau.
	objRow    int
	looseObj  float64
	retired   []int
	poolCalls int

	// infeasibleBasis marks that the last solve concluded Infeasible: the
	// kernel's terminal basis is then not a trustworthy warm-start point
	// once the caller mutates the problem again (an RHS retarget can chain
	// two infeasible dual re-solves onto a basis that silently drifts and
	// later closes feasible subtrees), so the next solving call rebuilds
	// the solver from the arena first.
	infeasibleBasis bool

	// dead holds the arena index of every no-good row ever added. The
	// arena keeps them (loose, non-binding) forever, but a fresh solver
	// after resetSolver must shed them before building: re-ingesting
	// hundreds of dead cuts would blow the tableau up ~25x and make every
	// stale-recovery redo pay for them on every pivot.
	dead []int

	// red holds the presolve reductions computed at construction; its
	// solver-level parts (fixings, row drops) are reapplied to every
	// fresh solver resetSolver builds. pre is the applied statistics,
	// surfaced on every Solution.
	red *presolve.Reductions
	pre presolve.Stats

	free []*wnode
}

// bdiff is one branching bound change: variable j constrained to [lo, hi].
type bdiff struct {
	j      int
	lo, hi float64
}

// wnode is one open subproblem: the bound-diff path from the root plus the
// relaxation solution computed when the node was created.
type wnode struct {
	diffs []bdiff
	bound float64 // internal minimization sense
	x     []float64
	depth int
	// version is the no-good cut count the node's relaxation was solved
	// under; enumeration re-solves stale nodes (version < current) from
	// the warm basis when they are popped.
	version int
}

// KernelKind names the LP kernel under a State.
type KernelKind int

const (
	// NoKernel marks a State whose arena no kernel can host.
	NoKernel KernelKind = iota
	// DenseKernel is the dense-tableau lp.Solver.
	DenseKernel
	// SparseKernel is the sparse revised-simplex lp.SparseSolver.
	SparseKernel
)

func (k KernelKind) String() string {
	switch k {
	case DenseKernel:
		return "dense"
	case SparseKernel:
		return "sparse"
	default:
		return "none"
	}
}

// sparseKernelThreshold is the rows+vars size at which the automatic
// kernel choice switches from the dense tableau to the sparse revised
// simplex. Below it the dense solver's cache-resident quadratic pivot
// update wins (the paper instance sits at ~100); above it the sparse
// kernel's nonzeros-proportional pivots win by a widening margin (~9x
// per pivot at the M=40 generator instance's ~1050).
const sparseKernelThreshold = 400

// kernelFor is the kernel the options request for p: forced by DenseLP
// or SparseLP, otherwise chosen by size.
func (o Options) kernelFor(p *linexpr.Compiled) KernelKind {
	switch {
	case o.DenseLP:
		return DenseKernel
	case o.SparseLP, len(p.Rows)+p.NumVars >= sparseKernelThreshold:
		return SparseKernel
	}
	return DenseKernel
}

// newKernel attaches a kernel of kind k to p.
func newKernel(p *linexpr.Compiled, k KernelKind) (lp.Kernel, error) {
	if k == DenseKernel {
		return lp.NewSolver(p)
	}
	return lp.NewSparseSolver(p)
}

// NewState attaches a persistent MILP state to p. The caller may keep
// appending rows to p between calls (pruning cuts); variable bounds and
// row data already in p must not be mutated by the caller afterwards.
//
// Construction runs the presolve pass (internal/lp/presolve) over the
// arena: reductions are expressed in original coordinates — variable
// fixings as solver bounds, redundant rows as pre-build drops, coefficient
// tightenings in place — so solutions, duals, and reduced costs need no
// postsolve translation.
//
// An arena with an infinite variable bound cannot be hosted by either
// kernel: the State is still returned, and every solving call returns
// the lp.ErrUnboundedVar error.
func NewState(p *linexpr.Compiled, opt Options) *State {
	st := &State{p: p, opt: opt.withDefaults(), objRow: -1}
	st.red = presolve.Analyze(p)
	st.pre = st.red.Apply(p)
	st.kind = st.opt.kernelFor(p)
	sv, err := newKernel(p, st.kind)
	if err != nil {
		st.kind, st.err = NoKernel, fmt.Errorf("milp: %w", err)
		return st
	}
	st.sv = sv
	st.applyReductions()
	return st
}

// applyReductions installs the solver-level presolve reductions on the
// current solver: implied fixings as bounds, never-binding rows as
// pre-build drops. Both are implied by the arena, so a reference solver
// that skips them solves an equivalent problem.
func (st *State) applyReductions() {
	for j, v := range st.red.Fixed {
		st.sv.SetVarBounds(j, v.Lo, v.Hi)
	}
	for _, r := range st.red.DropRows {
		st.sv.DropRow(r)
	}
}

// Kernel reports the LP kernel the state currently runs on: the
// size-based (or forced) choice until a distress switches it to
// SparseKernel, or NoKernel for an arena NewState could not host.
func (st *State) Kernel() KernelKind { return st.kind }

// SetRowRHS retargets the right-hand side of arena row i on both the
// arena and the live warm kernel, keeping the two views consistent: the
// next SolvePool re-solves from the current basis via dual simplex
// instead of a cold rebuild. This is how Γ-robust callers move a
// protected row's budget (e.g. the availability floor encoding Γ)
// between pool calls without recompiling the relaxation.
//
// The row must be one the state was built with (not an appended cut)
// and must not have been eliminated by presolve — robust protection
// rows satisfy both by construction: they carry the Skip tag, which
// exempts them from every presolve reduction.
func (st *State) SetRowRHS(i int, rhs float64) {
	st.p.Rows[i].RHS = rhs
	if st.sv != nil {
		st.sv.SetRowRHS(i, rhs)
	}
}

// resetSolver discards the (possibly poisoned) warm solver and attaches a
// fresh one to the arena. Arena rows carry loose protocol RHS values, so
// the fresh solver starts from a semantically clean problem; dead no-good
// rows are dropped before the first build so the fresh tableau carries
// only the live constraint set.
func (st *State) resetSolver() {
	st.applied = st.applied[:0]
	st.undo = st.undo[:0]
	st.kind = st.opt.kernelFor(st.p)
	sv, err := newKernel(st.p, st.kind)
	if err != nil {
		// NewState accepted these bounds; only a caller mutating them
		// afterwards, against NewState's contract, gets here.
		panic(fmt.Sprintf("milp: arena bounds changed under a State: %v", err))
	}
	st.sv = sv
	st.setConfirm(st.confirm)
	st.applyReductions()
	for _, r := range st.dead {
		sv.DropRow(r)
	}
	st.retired = st.retired[:0]
	st.infeasibleBasis = false
}

// freshenAfterInfeasible rebuilds the solver when the previous solve
// ended Infeasible (see infeasibleBasis); no-op otherwise.
func (st *State) freshenAfterInfeasible() {
	if st.infeasibleBasis {
		st.resetSolver()
	}
}

// distressLadder runs one solving call and, while it is distressed (see
// State), resets the solver and redoes it one rung higher: first on a
// fresh solver of the same kernel (the failed attempt may have inherited
// a drifted basis), then — from a fresh dense solver — on the sparse
// kernel for the rest of the state's life, and last on the sparse kernel
// with every warm Infeasible answer cold-confirmed, where a stale event
// can no longer taint the call. A failure on that last rung is returned.
// Redoing a failed fresh attempt unchanged would only repeat it: every
// rung is deterministic. It reports how many kernel switches it made.
func (st *State) distressLadder(call func() error) (int, error) {
	defer st.setConfirm(false)
	switches, fresh := 0, false
	for {
		r0 := st.sv.Stats().StaleRebuilds
		err := call()
		if err == nil && (st.confirm || st.sv.Stats().StaleRebuilds == r0) {
			return switches, nil
		}
		if err == nil {
			err = errors.New("warm basis went stale")
		}
		switch {
		case st.confirm:
			return switches, fmt.Errorf("milp: sparse kernel failed with every infeasibility cold-confirmed: %w", err)
		case fresh && st.kind == SparseKernel:
			st.setConfirm(true)
		case fresh:
			st.opt.DenseLP, st.opt.SparseLP = false, true
			switches++
		}
		st.resetSolver()
		fresh = true
	}
}

// setConfirm switches the last-rung mode (lp.SparseSolver's
// ConfirmInfeasible) on or off for the state and its current kernel.
func (st *State) setConfirm(on bool) {
	st.confirm = on
	if ss, ok := st.sv.(*lp.SparseSolver); ok {
		ss.ConfirmInfeasible = on
	}
}

// transition moves the solver's variable bounds from the currently applied
// diff path to target: the shared prefix stays, the divergent suffix is
// reverted in reverse order, and target's remainder is applied on top.
func (st *State) transition(target []bdiff) {
	lcp := 0
	for lcp < len(st.applied) && lcp < len(target) && st.applied[lcp] == target[lcp] {
		lcp++
	}
	for i := len(st.applied) - 1; i >= lcp; i-- {
		u := st.undo[i]
		st.sv.SetVarBounds(u.j, u.lo, u.hi)
	}
	st.applied = st.applied[:lcp]
	st.undo = st.undo[:lcp]
	for _, d := range target[lcp:] {
		lo, hi := st.sv.VarBounds(d.j)
		st.undo = append(st.undo, bdiff{d.j, lo, hi})
		st.sv.SetVarBounds(d.j, d.lo, d.hi)
		st.applied = append(st.applied, d)
	}
}

func (st *State) newNode(diffs []bdiff, bound float64, x []float64, depth int) *wnode {
	var nd *wnode
	if n := len(st.free); n > 0 {
		nd, st.free = st.free[n-1], st.free[:n-1]
	} else {
		nd = &wnode{}
	}
	nd.diffs, nd.bound, nd.x, nd.depth = diffs, bound, x, depth
	return nd
}

func (st *State) release(nd *wnode) {
	nd.diffs, nd.x = nil, nil
	st.free = append(st.free, nd)
}

// fixMargin is the safety margin of reduced-cost fixing: a variable is
// only fixed when the implied objective increase clears the pool cutoff
// by at least this much, so no within-tolerance pool member is lost.
const fixMargin = 1e-7

// branchAndBound explores bound-diff nodes depth-first over warm
// dual-simplex re-solves: the node popped next is always the one whose
// basis the solver already holds, so each child solve is a one-bound
// transition from an optimal parent basis. Pruning uses the same
// tolerances as the oracle's best-first Solve, so the result is
// identical (an optimal solution, proven). An unrecoverable solver status
// is returned as an error, which the distress ladder acts on.
//
// cutoffRow, when finite, is an upper bound (in row space, internal
// minimization, constant excluded) that every wanted integral solution
// satisfies; the root applies reduced-cost fixing against it: a nonbasic
// integer variable whose reduced cost pushes the objective past the
// cutoff cannot move off its bound in any wanted solution, so it is fixed
// for the whole tree. In the pool-enumeration phase, where the objective
// bound pins the feasible slab, this collapses the search to the
// genuinely tied variables.
// dive makes the search stop at the first integral solution found (an
// incumbent, not a proven optimum) — used to bootstrap a cutoff for a
// fixed full run. A dive that exhausts the tree without an incumbent is a
// complete infeasibility proof.
func (st *State) branchAndBound(cutoffRow float64, dive bool) (*Solution, error) {
	opt := st.opt
	p := st.p
	sol := &Solution{Status: Infeasible}

	st.transition(nil)
	root, err := st.sv.Solve()
	if err != nil {
		return nil, err
	}
	sol.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return sol, nil
	case lp.Optimal:
	default:
		return nil, fmt.Errorf("milp: warm root LP status %v", root.Status)
	}

	var rootDiffs []bdiff
	if !math.IsInf(cutoffRow, 1) {
		bRow := internalMin(p, root.Objective) - p.ObjConst
		for j := 0; j < p.NumVars; j++ {
			if !p.Integer[j] {
				continue
			}
			lo, hi := st.sv.VarBounds(j)
			if lo == hi {
				continue
			}
			z := st.sv.ReducedCost(j)
			if z > lp.Tolerance && bRow+z > cutoffRow+fixMargin {
				rootDiffs = append(rootDiffs, bdiff{j, lo, lo})
			} else if z < -lp.Tolerance && bRow-z > cutoffRow+fixMargin {
				rootDiffs = append(rootDiffs, bdiff{j, hi, hi})
			}
		}
		// Fixing at the resting value moves nothing: the root basis stays
		// optimal and root.X stays valid.
		st.transition(rootDiffs)
	}

	stack := []*wnode{st.newNode(rootDiffs, internalMin(p, root.Objective), root.X, 0)}
	defer func() {
		for _, nd := range stack {
			st.release(nd)
		}
	}()

	best := math.Inf(1)
	var bestX []float64

	for len(stack) > 0 {
		if sol.Nodes >= opt.MaxNodes {
			sol.Status = NodeLimit
			break
		}
		n := len(stack) - 1
		nd := stack[n]
		stack = stack[:n]
		sol.Nodes++
		if nd.bound >= best-1e-9 {
			st.release(nd)
			continue // bound went stale while the node waited on the stack
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			if nd.bound < best-1e-9 {
				best = nd.bound
				bestX = roundIntegral(p, nd.x, opt.IntTol)
			}
			st.release(nd)
			if dive {
				break
			}
			continue
		}
		v := nd.x[frac]
		st.transition(nd.diffs)
		lo, hi := st.sv.VarBounds(frac)
		// Solve the floor child first and push it first: depth-first then
		// dives into the ceil child, whose basis the solver holds.
		for pass := 0; pass < 2; pass++ {
			d := bdiff{frac, lo, math.Floor(v)}
			if pass == 1 {
				d = bdiff{frac, math.Ceil(v), hi}
			}
			if d.lo > d.hi {
				continue // empty box: child trivially infeasible
			}
			diffs := append(nd.diffs[:len(nd.diffs):len(nd.diffs)], d)
			st.transition(diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return nil, err
			}
			sol.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				if b := internalMin(p, cs.Objective); b < best-1e-9 {
					stack = append(stack, st.newNode(diffs, b, cs.X, nd.depth+1))
				}
			case lp.Infeasible:
				// prune
			default:
				return nil, fmt.Errorf("milp: warm child LP status %v", cs.Status)
			}
		}
		st.release(nd)
	}

	if bestX != nil {
		if sol.Status != NodeLimit {
			sol.Status = Optimal
		}
		sol.X = bestX
		sol.Objective = callerDir(p, best)
	}
	return sol, nil
}

// solveWithDive finds a provably optimal integral solution: a quick
// depth-first dive produces an incumbent whose value seeds reduced-cost
// fixing (keeping every solution within slack of the incumbent, so the
// true optimum and the whole ±slack pool survive), then the fixed full
// run closes the tree.
func (st *State) solveWithDive(slack float64) (*Solution, error) {
	inc, err := st.branchAndBound(math.Inf(1), true)
	if err != nil || inc.Status != Optimal {
		return inc, err
	}
	cutoffRow := internalMin(st.p, inc.Objective) - st.p.ObjConst + slack
	sol, err := st.branchAndBound(cutoffRow, false)
	if err != nil {
		return nil, err
	}
	sol.Nodes += inc.Nodes
	sol.LPIterations += inc.LPIterations
	return sol, nil
}

// Solve finds an optimal integral solution warm-starting from the state's
// basis, under the distress ladder.
func (st *State) Solve() (*Solution, error) {
	if st.err != nil {
		return nil, st.err
	}
	st.freshenAfterInfeasible()
	var sol *Solution
	switches, err := st.distressLadder(func() (err error) {
		s0 := st.sv.Stats()
		if sol, err = st.solveWithDive(0); err == nil {
			st.stampKernelStats(sol, s0)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sol.KernelSwitches = switches
	st.stampPresolve(sol)
	st.infeasibleBasis = sol.Status == Infeasible
	return sol, nil
}

// looseObjBound returns an RHS no point in the root box can exceed for the
// arena's objective row, used as the resting value of the shared
// pool_obj_bound row.
func looseObjBound(p *linexpr.Compiled) float64 {
	v := 1.0
	for j := 0; j < p.NumVars; j++ {
		if c := p.Obj[j]; c != 0 {
			v += math.Max(c*p.Lo[j], c*p.Hi[j])
		}
	}
	return v
}

// addNoGood appends a no-good cut excluding the binary assignment xhat.
// The arena row is born loose (GE with an unreachable RHS) and tightened
// to the live cut only inside the solver.
func (st *State) addNoGood(xhat []float64, iter int) int {
	p := st.p
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
	idx := len(p.Rows)
	p.AddRow(fmt.Sprintf("nogood_p%d_%d", st.poolCalls, iter), coefs, linexpr.GE, float64(-ones-1))
	st.sv.SetRowRHS(idx, float64(1-ones))
	st.dead = append(st.dead, idx)
	return idx
}

// retireNoGoods loosens this call's live no-good cuts back to their arena
// resting RHS, re-solves once so their slacks re-enter the basis, and
// drops every retired row whose slack is basic. Rows that cannot be
// dropped yet stay queued for the next call's sweep.
func (st *State) retireNoGoods(added []int) int {
	for _, r := range added {
		row := &st.p.Rows[r]
		st.sv.SetRowRHS(r, row.RHS)
	}
	st.retired = append(st.retired, added...)
	if len(st.retired) == 0 {
		return 0
	}
	extra := 0
	if s, err := st.sv.Solve(); err == nil {
		extra = s.Iterations
		kept := st.retired[:0]
		for _, r := range st.retired {
			if !st.sv.DropRow(r) {
				kept = append(kept, r)
			}
		}
		st.retired = kept
	}
	return extra
}

// SolvePool enumerates the optimal-solution pool of the arena: all
// integral solutions whose objective is within objTol of the optimum, up
// to limit entries (limit <= 0 means unlimited). It requires every
// integral variable to be binary, because enumeration uses binary
// no-good cuts. Every solve warm-starts from the persistent basis: the
// shared objective-bound row is RHS-retargeted instead of re-added, each
// no-good cut re-solves from the incumbent basis, and the tree state
// survives into the next call (after the caller appends pruning cuts).
// The Solution carries aggregate statistics and the status and optimum
// of the first solve.
//
// A complete enumeration (limit <= 0, the Algorithm 1 configuration) is
// identical as a set to the oracle's repeated-argmin pool. A capped pool
// stops the same single-tree enumeration after limit members: each is
// optimal and feasible, but which members survive the cap follows the
// tree's discovery order.
func (st *State) SolvePool(limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	if objTol <= 0 {
		objTol = 1e-6
	}
	p := st.p
	for j := 0; j < p.NumVars; j++ {
		if p.Integer[j] && (p.Lo[j] < -st.opt.IntTol || p.Hi[j] > 1+st.opt.IntTol) {
			return nil, nil, fmt.Errorf("milp: SolvePool requires binary integral variables; %q has bounds [%g,%g]",
				p.Names[j], p.Lo[j], p.Hi[j])
		}
	}
	if st.err != nil {
		return nil, nil, st.err
	}
	st.freshenAfterInfeasible()
	var pool []PoolSolution
	var agg *Solution
	switches, err := st.distressLadder(func() (err error) {
		pool, agg, err = st.warmPool(limit, objTol)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	agg.KernelSwitches = switches
	return pool, agg, nil
}

// warmPool is one attempt at a SolvePool call on the current solver.
func (st *State) warmPool(limit int, objTol float64) ([]PoolSolution, *Solution, error) {
	p := st.p
	st.poolCalls++
	s0 := st.sv.Stats()

	// Previous calls leave the objective bound tightened at their optimum;
	// pruning cuts added since push the optimum up, so rest it first.
	if st.objRow >= 0 {
		st.sv.SetRowRHS(st.objRow, st.looseObj)
	}

	agg := &Solution{Status: Infeasible}
	var pool []PoolSolution
	var added []int

	s, err := st.solveWithDive(objTol)
	if err != nil {
		return nil, nil, err
	}
	agg.Nodes += s.Nodes
	agg.LPIterations += s.LPIterations
	agg.Status = s.Status
	if s.Status == Optimal {
		agg.X = s.X
		agg.Objective = s.Objective
		bestInternal := internalMin(p, s.Objective)
		if st.objRow < 0 {
			st.objRow = len(p.Rows)
			st.looseObj = looseObjBound(p)
			coefs := append([]float64(nil), p.Obj...)
			p.AddRow("pool_obj_bound", coefs, linexpr.LE, st.looseObj)
		}
		cutoffRow := bestInternal - p.ObjConst + objTol
		st.sv.SetRowRHS(st.objRow, cutoffRow)
		if st.opt.Workers >= 1 && limit <= 0 {
			// Parallel subtree dives: the whole slab is re-enumerated
			// from disjoint boxes (the first member is rediscovered by
			// its box), deterministically for any worker count.
			pp, err := st.parallelPool(agg, cutoffRow)
			if err != nil {
				return nil, nil, err
			}
			pool = pp
		} else {
			pool = append(pool, PoolSolution{X: s.X, Objective: s.Objective})
			if limit <= 0 || len(pool) < limit {
				added = append(added, st.addNoGood(s.X, 0))
				if err := st.enumerate(agg, &pool, &added, limit, cutoffRow); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	st.infeasibleBasis = agg.Status == Infeasible
	agg.LPIterations += st.retireNoGoods(added)
	st.stampKernelStats(agg, s0)
	st.stampPresolve(agg)
	return pool, agg, nil
}

// stampKernelStats adds the solver's warm/cold/refactorization counts
// since s0 to sol. It adds rather than sets so that parallel-dive task
// contributions (accumulated directly on sol) survive alongside the
// parent-solver delta.
func (st *State) stampKernelStats(sol *Solution, s0 lp.SolverStats) {
	d := st.sv.Stats()
	sol.WarmSolves += d.WarmSolves - s0.WarmSolves
	sol.ColdSolves += d.ColdSolves - s0.ColdSolves
	sol.Refactorizations += d.Refactorizations - s0.Refactorizations
}

// stampPresolve copies the construction-time presolve statistics onto a
// result.
func (st *State) stampPresolve(sol *Solution) {
	sol.PresolveFixed = st.pre.FixedVars
	sol.PresolveDropped = st.pre.DroppedRows
	sol.PresolveTightened = st.pre.TightenedCoefs
}

// enumerate collects the rest of the optimal-solution pool in a single
// depth-first tree: the objective-bound row pins the optimum slab, a live
// no-good cut lands the moment a member is found, and the tree simply
// continues — nodes solved before a cut are stale (version stamp) and
// re-solve from the warm basis when popped, so no per-member root restart
// ever happens. Reduced-cost fixing against the slab cutoff collapses the
// tree to the genuinely tied variables.
func (st *State) enumerate(agg *Solution, pool *[]PoolSolution, added *[]int, limit int, cutoffRow float64) error {
	p := st.p
	opt := st.opt
	ver := len(*added)

	st.transition(nil)
	root, err := st.sv.Solve()
	if err != nil {
		return err
	}
	agg.LPIterations += root.Iterations
	switch root.Status {
	case lp.Infeasible:
		return nil // the sole member already found closes the slab
	case lp.Optimal:
	default:
		return fmt.Errorf("milp: warm enumeration root LP status %v", root.Status)
	}

	var rootDiffs []bdiff
	bRow := internalMin(p, root.Objective) - p.ObjConst
	for j := 0; j < p.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		lo, hi := st.sv.VarBounds(j)
		if lo == hi {
			continue
		}
		z := st.sv.ReducedCost(j)
		if z > lp.Tolerance && bRow+z > cutoffRow+fixMargin {
			rootDiffs = append(rootDiffs, bdiff{j, lo, lo})
		} else if z < -lp.Tolerance && bRow-z > cutoffRow+fixMargin {
			rootDiffs = append(rootDiffs, bdiff{j, hi, hi})
		}
	}
	st.transition(rootDiffs)

	rootNode := st.newNode(rootDiffs, internalMin(p, root.Objective), root.X, 0)
	rootNode.version = ver
	stack := []*wnode{rootNode}
	defer func() {
		for _, nd := range stack {
			st.release(nd)
		}
	}()

	nodes := 0
	for len(stack) > 0 {
		if nodes >= opt.MaxNodes {
			break // pool truncated, like a NodeLimit solve
		}
		n := len(stack) - 1
		nd := stack[n]
		stack = stack[:n]
		nodes++
		if nd.version != ver {
			// A cut landed after this node's relaxation was solved.
			st.transition(nd.diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return err
			}
			agg.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Infeasible:
				st.release(nd)
				continue
			case lp.Optimal:
			default:
				return fmt.Errorf("milp: warm enumeration LP status %v", cs.Status)
			}
			nd.bound = internalMin(p, cs.Objective)
			nd.x = cs.X
			nd.version = ver
		}
		frac := mostFractional(p, nd.x, opt.IntTol)
		if frac < 0 {
			xr := roundIntegral(p, nd.x, opt.IntTol)
			*pool = append(*pool, PoolSolution{X: xr, Objective: callerDir(p, nd.bound)})
			if limit > 0 && len(*pool) >= limit {
				st.release(nd)
				break
			}
			*added = append(*added, st.addNoGood(xr, len(*pool)-1))
			ver++
			// Re-push: the node's box may hold further members; the stale
			// version forces a re-solve under the new cut on next pop.
			stack = append(stack, nd)
			continue
		}
		v := nd.x[frac]
		st.transition(nd.diffs)
		lo, hi := st.sv.VarBounds(frac)
		for pass := 0; pass < 2; pass++ {
			d := bdiff{frac, lo, math.Floor(v)}
			if pass == 1 {
				d = bdiff{frac, math.Ceil(v), hi}
			}
			if d.lo > d.hi {
				continue
			}
			diffs := append(nd.diffs[:len(nd.diffs):len(nd.diffs)], d)
			st.transition(diffs)
			cs, err := st.sv.Solve()
			if err != nil {
				return err
			}
			agg.LPIterations += cs.Iterations
			switch cs.Status {
			case lp.Optimal:
				child := st.newNode(diffs, internalMin(p, cs.Objective), cs.X, nd.depth+1)
				child.version = ver
				stack = append(stack, child)
			case lp.Infeasible:
				// prune
			default:
				return fmt.Errorf("milp: warm enumeration child LP status %v", cs.Status)
			}
		}
		st.release(nd)
	}
	agg.Nodes += nodes
	return nil
}
