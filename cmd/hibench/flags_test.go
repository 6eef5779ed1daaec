package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hibench's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "benchjson= cachefile= cmp=false cpuprofile= csv= duration=60 exp=all memprofile= nsdelta=0 paper=false runs=1 seed=1 shards=0"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
