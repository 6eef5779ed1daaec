package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hiopt/internal/engine"
	"hiopt/internal/experiments"
	"hiopt/internal/netsim"
)

func TestFidelityPaperOverride(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want experiments.Fidelity
	}{
		{nil, experiments.Quick},
		{[]string{"-duration", "5", "-runs", "2", "-seed", "7"}, experiments.Fidelity{Duration: 5, Runs: 2, Seed: 7}},
		// -paper replaces the horizon and the run count, never the seed.
		{[]string{"-duration", "5", "-runs", "2", "-seed", "7", "-paper"}, experiments.Fidelity{Duration: 600, Runs: 3, Seed: 7}},
		{[]string{"-paper"}, experiments.Paper},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := AddFidelity(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := f.Fidelity()
		if got != tc.want {
			t.Errorf("%v: Fidelity() = %+v, want %+v", tc.args, got, tc.want)
		}
		if got.Sig() != engine.ContextSig(tc.want.Duration, tc.want.Runs, tc.want.Seed) {
			t.Errorf("%v: Sig() does not sign the resolved fidelity", tc.args)
		}
	}
}

// smokeRequests are four distinct short keyed simulations.
func smokeRequests() []engine.Request {
	var reqs []engine.Request
	for i, locs := range [][]int{{0, 1}, {0, 3}, {0, 1, 3}, {0, 1, 3, 6}} {
		cfg := netsim.DefaultConfig(locs, netsim.TDMA, netsim.Star, 0)
		cfg.Duration = 1
		reqs = append(reqs, engine.Request{Cfg: cfg, Runs: 1, Seed: 1, Key: engine.PointKey(uint32(i + 1))})
	}
	return reqs
}

// openRun opens an engine from the flags, evaluates the smoke requests,
// closes it and returns what it printed and its counters.
func openRun(t *testing.T, f *EngineFlags, sig uint64) (string, engine.Stats) {
	t.Helper()
	var out bytes.Buffer
	eng, err := f.Open(&out, 2, sig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EvaluateBatch(smokeRequests(), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return out.String(), eng.Stats()
}

// TestCacheFileWarmRestart: a second open of the same -cachefile at the
// same fidelity loads every entry the first run simulated and
// re-simulates nothing; at another fidelity the file answers nothing.
func TestCacheFileWarmRestart(t *testing.T) {
	f := &EngineFlags{CacheFile: filepath.Join(t.TempDir(), "cache.bin"), Shards: 4}
	sig := experiments.Fidelity{Duration: 1, Runs: 1, Seed: 1}.Sig()
	cold, st := openRun(t, f, sig)
	if strings.Contains(cold, "cache:") || st.Simulated != int64(len(smokeRequests())) {
		t.Fatalf("cold run: printed %q, stats %+v", cold, st)
	}
	warm, st := openRun(t, f, sig)
	n := len(smokeRequests())
	if want := "cache:        loaded " + strconv.Itoa(n) + " entries from " + f.CacheFile + "\n"; !strings.HasPrefix(warm, want) {
		t.Fatalf("warm run printed %q, want it to start with %q", warm, want)
	}
	if st.Simulated != 0 || st.DiskHits != int64(n) {
		t.Fatalf("warm run re-simulated %d, disk hits %d (want 0 and %d)", st.Simulated, st.DiskHits, n)
	}
	other, st := openRun(t, f, experiments.Fidelity{Duration: 2, Runs: 1, Seed: 1}.Sig())
	if strings.Contains(other, "cache:") || st.Simulated != int64(n) {
		t.Fatalf("run at another fidelity: printed %q, stats %+v", other, st)
	}
}

// TestEngineLine pins the engine: line to the fields `make cache-smoke`
// reads with awk: $1 "engine:", $2 the submitted count, $4 the
// simulated count. An engine that was never submitted anything prints no
// line.
func TestEngineLine(t *testing.T) {
	out, st := openRun(t, &EngineFlags{}, 0)
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", out)
	}
	fields := strings.Fields(out)
	if len(fields) < 5 || fields[0] != "engine:" || fields[2] != "submitted," || fields[4] != "simulated" {
		t.Fatalf("engine line %q does not have the cache-smoke layout", out)
	}
	if fields[1] != strconv.FormatInt(st.Submitted, 10) || fields[3] != strconv.FormatInt(st.Simulated, 10) {
		t.Fatalf("engine line %q, stats %+v", out, st)
	}

	var idle bytes.Buffer
	eng, err := (&EngineFlags{}).Open(&idle, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if idle.Len() != 0 {
		t.Fatalf("idle engine printed %q", idle.String())
	}
}

func TestListParsers(t *testing.T) {
	if got := List(" a, ,b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("List = %q", got)
	}
	pos := func(v float64) bool { return v > 0 }
	if got, err := Floats("bounds", "0.5, 0.9", pos); err != nil || !reflect.DeepEqual(got, []float64{0.5, 0.9}) {
		t.Fatalf("Floats = %v, %v", got, err)
	}
	if got, err := Floats("bounds", "", pos); err != nil || got != nil {
		t.Fatalf("empty Floats = %v, %v", got, err)
	}
	for _, bad := range []string{"0.5,x", "0.5,-1"} {
		if _, err := Floats("bounds", bad, pos); err == nil || !strings.Contains(err.Error(), "bad -bounds entry") {
			t.Fatalf("Floats(%q) error %v", bad, err)
		}
	}
	if got, err := Ints("locs", "0,1,3", nil); err != nil || !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("Ints = %v, %v", got, err)
	}
	if _, err := Ints("kfail", "1,0", func(k int) bool { return k > 0 }); err == nil {
		t.Fatal("Ints accepted an entry ok refused")
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	p := &ProfileFlags{CPU: filepath.Join(dir, "cpu.pprof"), Mem: filepath.Join(dir, "mem.pprof")}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPU, p.Mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestStartNoop(t *testing.T) {
	stop, err := (&ProfileFlags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
