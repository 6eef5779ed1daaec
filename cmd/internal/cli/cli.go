// Package cli is the plumbing the hiopt commands share: the fidelity
// flags, the -cachefile/-shards engine lifecycle with its cache: and
// engine: lines, pprof start/stop, comma-separated list flags, and the
// fatal-error exit.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"hiopt/internal/engine"
	"hiopt/internal/experiments"
)

// Fatal prints "prog: err" to standard error and exits with status 1.
func Fatal(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}

// FidelityFlags hold the -duration, -runs, -seed and -paper flags.
type FidelityFlags struct {
	Duration float64
	Runs     int
	Seed     uint64
	Paper    bool
}

// AddFidelity registers the fidelity flags on fs.
func AddFidelity(fs *flag.FlagSet) *FidelityFlags {
	f := &FidelityFlags{}
	fs.Float64Var(&f.Duration, "duration", 60, "simulation horizon in seconds")
	fs.IntVar(&f.Runs, "runs", 1, "runs to average")
	fs.Uint64Var(&f.Seed, "seed", 1, "master random seed")
	fs.BoolVar(&f.Paper, "paper", false, "paper fidelity (600 s × 3 runs)")
	return f
}

// Fidelity resolves the flags: -paper replaces -duration and -runs with
// experiments.Paper's, and -seed applies either way.
func (f *FidelityFlags) Fidelity() experiments.Fidelity {
	fid := experiments.Fidelity{Duration: f.Duration, Runs: f.Runs, Seed: f.Seed}
	if f.Paper {
		fid = experiments.Paper
		fid.Seed = f.Seed
	}
	return fid
}

// EngineFlags hold the -cachefile and -shards flags.
type EngineFlags struct {
	CacheFile string
	Shards    int
}

// AddEngine registers -shards on fs and, when cacheUsage is non-empty,
// -cachefile with that usage text.
func AddEngine(fs *flag.FlagSet, cacheUsage string) *EngineFlags {
	f := &EngineFlags{}
	if cacheUsage != "" {
		fs.StringVar(&f.CacheFile, "cachefile", "", cacheUsage)
	}
	fs.IntVar(&f.Shards, "shards", 0, "engine cache shard count, a power of two (0 = default)")
	return f
}

// Engine is a command's evaluation engine, opened from its EngineFlags
// and closed once when the command's work is done.
type Engine struct {
	*engine.Engine
	w io.Writer
}

// Open builds the engine with the given worker count (0 = GOMAXPROCS)
// and the -shards count. With -cachefile set it attaches the file under
// the run's context signature sig and, when the file held entries,
// prints the cache: line to w.
func (f *EngineFlags) Open(w io.Writer, workers int, sig uint64) (*Engine, error) {
	eng, err := engine.NewSharded(workers, f.Shards)
	if err != nil {
		return nil, err
	}
	if f.CacheFile != "" {
		n, err := eng.AttachCacheFile(f.CacheFile, sig)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			fmt.Fprintf(w, "cache:        loaded %d entries from %s\n", n, f.CacheFile)
		}
	}
	return &Engine{Engine: eng, w: w}, nil
}

// Close flushes the cache file's spill tier and, when the engine was
// submitted any request, prints the engine: line — the engine's
// cumulative counters — to the writer Open was given.
func (e *Engine) Close() error {
	if err := e.CloseSpill(); err != nil {
		return err
	}
	if st := e.Stats(); st.Submitted > 0 {
		fmt.Fprintf(e.w, "engine:       %s\n", st)
	}
	return nil
}

// ProfileFlags hold the -cpuprofile and -memprofile flags.
type ProfileFlags struct {
	CPU, Mem string
}

// AddProfile registers the profiling flags on fs.
func AddProfile(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling to -cpuprofile (skipped when empty) and
// returns a stop function that ends the CPU profile and writes a heap
// profile to -memprofile (skipped when empty). The heap profile is taken
// after a GC so it reflects live objects, not transient garbage.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpuF *os.File
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}

// List splits a comma-separated flag value into its trimmed, non-empty
// entries.
func List(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Floats parses the comma-separated value s of flag -name, rejecting an
// entry that is not a number or that ok refuses.
func Floats(name, s string, ok func(float64) bool) ([]float64, error) {
	return parseList(name, s, func(p string) (float64, error) { return strconv.ParseFloat(p, 64) }, ok)
}

// Ints parses the comma-separated value s of flag -name, rejecting an
// entry that is not an integer or that ok (when non-nil) refuses.
func Ints(name, s string, ok func(int) bool) ([]int, error) {
	return parseList(name, s, strconv.Atoi, ok)
}

func parseList[T any](name, s string, parse func(string) (T, error), ok func(T) bool) ([]T, error) {
	var out []T
	for _, part := range List(s) {
		v, err := parse(part)
		if err != nil || (ok != nil && !ok(v)) {
			return nil, fmt.Errorf("bad -%s entry %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// FlagDefaults lists fs's flags as space-separated "name=default" pairs
// in name order, leaving out the testing package's "test." flags: the
// flag surface each command's tests pin.
func FlagDefaults(fs *flag.FlagSet) string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			out = append(out, f.Name+"="+f.DefValue)
		}
	})
	return strings.Join(out, " ")
}
