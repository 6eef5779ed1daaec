package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hiserve-bench's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "clients=1000 json= requests=0 shards=0 url= workers=0"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
