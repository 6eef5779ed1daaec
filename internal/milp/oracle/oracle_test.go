package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hiopt/internal/linexpr"
	"hiopt/internal/milp"
	"hiopt/internal/rng"
)

const importPath = "hiopt/internal/milp/oracle"

// TestOracleImportedByTestsOnly is the guard that keeps the reference
// solver out of production: it parses the imports of every Go file under
// the module root and fails if any non-test file imports this package.
// It also requires at least one test file to import it, so a moved
// package cannot pass the guard vacuously.
func TestOracleImportedByTestsOnly(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module hiopt\n") {
		t.Fatalf("%s is not the hiopt module root (go.mod: %v)", root, err)
	}
	fset := token.NewFileSet()
	var offenders []string
	prodFiles, testImporters := 0, 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest {
			prodFiles++
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != importPath {
				continue
			}
			if isTest {
				testImporters++
			} else {
				rel, _ := filepath.Rel(root, path)
				offenders = append(offenders, rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		t.Fatalf("non-test files import %s (test-only): %v", importPath, offenders)
	}
	if prodFiles == 0 || testImporters == 0 {
		t.Fatalf("guard saw %d non-test files and %d test importers: the walk missed the module", prodFiles, testImporters)
	}
}

// randomBinary builds a random pure-binary minimization instance.
func randomBinary(g *rng.Stream, n int) *linexpr.Compiled {
	m := linexpr.NewModel()
	ids := make([]linexpr.VarID, n)
	for i := range ids {
		ids[i] = m.Binary("")
	}
	for r := 1 + g.Intn(3); r > 0; r-- {
		e := linexpr.Expr{}
		for _, id := range ids {
			e = e.PlusTerm(id, float64(g.Intn(7)-3))
		}
		m.Add("", e, []linexpr.Sense{linexpr.LE, linexpr.GE}[g.Intn(2)], float64(g.Intn(5)-2))
	}
	obj := linexpr.Expr{}
	for _, id := range ids {
		obj = obj.PlusTerm(id, float64(g.Intn(5)-2)) // small lattice: ties common
	}
	m.SetObjective(obj, false)
	return m.Compile()
}

// TestOracleMatchesBruteForce pins the oracle itself: on random binary
// MILPs its optimum and its complete pool must equal brute-force
// enumeration over every 0/1 point.
func TestOracleMatchesBruteForce(t *testing.T) {
	g := rng.NewSource(2024).Stream("oracle")
	for trial := 0; trial < 60; trial++ {
		n := 3 + g.Intn(5)
		c := randomBinary(g, n)
		best := math.Inf(1)
		var optima []string
		x := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range x {
				x[i] = float64(mask >> i & 1)
			}
			if milp.CheckFeasible(c, x, 1e-9) != nil {
				continue
			}
			v := c.ObjConst
			for i := range x {
				v += c.Obj[i] * x[i]
			}
			switch {
			case v < best-1e-9:
				best, optima = v, []string{key(x)}
			case v < best+1e-9:
				optima = append(optima, key(x))
			}
		}
		s, err := Solve(c, milp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pool, agg, err := SolvePool(c, milp.Options{}, 0, 1e-6)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if optima == nil {
			if s.Status != milp.Infeasible || agg.Status != milp.Infeasible || len(pool) != 0 {
				t.Fatalf("trial %d: infeasible instance solved as %v / pool %v with %d members", trial, s.Status, agg.Status, len(pool))
			}
			continue
		}
		if s.Status != milp.Optimal || math.Abs(s.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: Solve %v z=%v, brute force z=%v", trial, s.Status, s.Objective, best)
		}
		got := make([]string, len(pool))
		for i, ps := range pool {
			got[i] = key(ps.X)
		}
		sort.Strings(got)
		sort.Strings(optima)
		if strings.Join(got, ",") != strings.Join(optima, ",") {
			t.Fatalf("trial %d: pool %v, brute force optima %v", trial, got, optima)
		}
	}
}

func key(x []float64) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0'
		if v > 0.5 {
			b[i] = '1'
		}
	}
	return string(b)
}
