package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hiopt's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "adaptive=false cachefile= duration=60 gamma=0 kfail=1 lp= maxiter=0 milpworkers=0 mps= noalpha=false paper=false pdrmin=0.9 pool=0 robust=false robustpdrmin=0 runs=1 seed=1 shards=0 twostage=false v=false"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
