package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hisim's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "adaptive=false cachefile= duration=60 faults= locs=0,1,3,6 mac=csma nodes=false paper=false pdrmin=0.9 routing=star runs=1 scenario= seed=1 shards=0 trace= tx=-10"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
