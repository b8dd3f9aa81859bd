package main

import (
	"testing"
	"time"
)

// These tests pin the CLI contract CI and the replay lines depend on:
// exit 0 = every seed passed, 1 = a seed failed its oracles, 2 = the
// invocation was wrong (or the harness failed). An invocation error must be
// reported before any seed runs.

func TestRunUsageErrors(t *testing.T) {
	start := time.Now()
	for _, args := range [][]string{
		{"-nodes", "1"},
		{"-no-such-flag"},
		{"-seeds", "many"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("run(%q) = %d, want 2", args, got)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("usage errors took %v; they must fail before any seed runs", elapsed)
	}
}

func TestRunCleanSeed(t *testing.T) {
	if got := run([]string{"-seeds", "1", "-clients", "2", "-ops", "8", "-nokill"}); got != 0 {
		t.Errorf("clean seed = %d, want 0", got)
	}
}
