package main

import (
	"path/filepath"
	"testing"

	"hiopt/internal/microbench"
)

// TestRegistryCoversBaseline: `hibench -benchjson` and the root
// BenchmarkMicro both run microbench.Cases, so pinning the registry to the
// checked-in baseline keeps every gated benchmark in both. Names must be
// unique, every entry must have a baseline, and every baseline entry not
// listed as retired must be in the registry.
func TestRegistryCoversBaseline(t *testing.T) {
	base, err := readBenchFile(filepath.Join("..", "..", "BENCH_simcore.json"))
	if err != nil {
		t.Fatal(err)
	}
	inRegistry := make(map[string]bool, len(microbench.Cases))
	for _, c := range microbench.Cases {
		if inRegistry[c.Name] {
			t.Errorf("registry name %q appears twice", c.Name)
		}
		inRegistry[c.Name] = true
		if _, ok := base.Benchmarks[c.Name]; !ok {
			t.Errorf("registry entry %q has no baseline in BENCH_simcore.json", c.Name)
		}
	}
	retired := make(map[string]bool, len(base.Retired))
	for _, name := range base.Retired {
		retired[name] = true
	}
	for name := range base.Benchmarks {
		if !inRegistry[name] && !retired[name] {
			t.Errorf("baseline entry %q is neither in the microbench registry nor retired", name)
		}
	}
}
