package main

import (
	"flag"
	"testing"

	"hiopt/cmd/internal/cli"
)

// TestFlagsPinned: hiserve's flag names and defaults are its user-facing
// contract, shared with scripts and the Makefile gates.
func TestFlagsPinned(t *testing.T) {
	const want = "addr=:8080 cachefile= capacity=0 drain=30s maxqueue=0 robustweight=0 shards=0 workers=0"
	if got := cli.FlagDefaults(flag.CommandLine); got != want {
		t.Fatalf("flag set changed:\n got %s\nwant %s", got, want)
	}
}
