package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hisweep's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "adaptive=false bounds= cachefile= cpuprofile= csv= duration=60 gamma= gammacsv= gammaiter=8 kfail=1,2 latmax=0 memprofile= paper=false pareto=false paretocold=false paretocsv= pdrmin=0.9 robust=false robustcsv= robustpdrmin=0 runs=1 seed=1 shards=0"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
