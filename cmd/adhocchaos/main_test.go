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
		{"-restart", "-groupcommit"},
		{"-restart", "-groupcommit=false"},
		{"-restart", "-fsync", "500us"},
		{"-restart", "-occ"},
		{"-restart", "-shards", "4"},
		{"-groupcommit", "-occ", "-restart", "-fsync", "500us", "-shards", "1"},
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

func TestRunCleanSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs chaos seeds")
	}
	small := []string{"-seeds", "1", "-clients", "2", "-ops", "4", "-rows", "4"}
	for _, extra := range [][]string{
		nil,
		{"-groupcommit", "-occ", "-fsync", "500us", "-shards", "2"},
		{"-restart"},
		{"-restart", "-nofaults", "-crashes", "2"},
	} {
		args := append(append([]string(nil), small...), extra...)
		if got := run(args); got != 0 {
			t.Errorf("run(%q) = %d, want 0", args, got)
		}
	}
}
