package chaos

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// parseReplay parses a printed replay line through the flag set of the CLI
// it names, the way that CLI's run does, and returns the Config it rebuilds.
func parseReplay(t *testing.T, line string) Config {
	t.Helper()
	args := strings.Fields(line)
	if len(args) < 3 || args[0] != "go" || args[1] != "run" {
		t.Fatalf("not a go run line: %q", line)
	}
	cli := strings.TrimPrefix(args[2], "./cmd/")
	fs := flag.NewFlagSet(cli, flag.ContinueOnError)
	var cfg *Config
	switch cli {
	case "adhocchaos":
		cfg = Flags(fs, InProcess)
	case "adhocrepl":
		cfg = Flags(fs, Replicated)
	default:
		t.Fatalf("replay line names unknown CLI %q", cli)
	}
	seed := fs.Int64("seed", 1, "")
	seeds := fs.Int("seeds", 20, "")
	if err := fs.Parse(args[3:]); err != nil {
		t.Fatalf("%s rejects its replay line %q: %v", cli, line, err)
	}
	if *seeds != 1 || fs.NArg() != 0 {
		t.Fatalf("replay line %q: -seeds %d, stray args %q", line, *seeds, fs.Args())
	}
	cfg.Seed = *seed
	return *cfg
}

// TestReplayCommandRoundTrips: the printed replay line, parsed by the CLI it
// names, rebuilds exactly the Config that ran — in every topology and with
// every flag that differs from that CLI's default. cmd/adhocgen's
// TestChaosReplayRoundTrips covers the lines of generated mixes.
func TestReplayCommandRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []string // substrings the line must carry
	}{
		{"in-process", Config{Seed: 42, Clients: 3, Ops: 9, Rows: 5, Crashes: 2, Faults: true},
			[]string{"./cmd/adhocchaos", "-seed 42", "-clients 3", "-ops 9", "-rows 5", "-crashes 2"}},
		{"restart", Config{Topology: Restart, Seed: 42, Crashes: 3, Faults: true},
			[]string{"-restart", "-seed 42", "-crashes 3"}},
		{"replicated", Config{Topology: Replicated, Seed: 7, Clients: 3, Ops: 16, Crashes: 1, Faults: true},
			[]string{"./cmd/adhocrepl", "-chaos", "-clients 3", "-ops 16"}},
		{"nofaults", Config{Seed: 5, Crashes: 2},
			[]string{"-nofaults", "-crashes 2"}},
		{"restart-nofaults", Config{Topology: Restart, Seed: 5, Crashes: 1},
			[]string{"-restart", "-nofaults"}},
		{"groupcommit-fsync", Config{Seed: 9, Crashes: 1, Faults: true, GroupCommit: true, Fsync: 500 * time.Microsecond, LockShards: 4},
			[]string{"-groupcommit", "-fsync 500µs", "-shards 4"}},
		{"occ", Config{Seed: 7, Crashes: 1, Faults: true, OCC: true},
			[]string{"-occ"}},
		{"replicated-groupcommit-fsync", Config{Topology: Replicated, Seed: 3, Crashes: 1, GroupCommit: true, Fsync: 500 * time.Microsecond},
			[]string{"-groupcommit", "-fsync 500µs"}},
		{"nokill", Config{Topology: Replicated, Seed: 2, Partitions: 3, Followers: 1, Rows: 6},
			[]string{"-nokill", "-partitions 3", "-nodes 2", "-rows 6"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			line := ReplayCommand(tc.cfg)
			for _, w := range tc.want {
				if !strings.Contains(line, w) {
					t.Errorf("replay line %q lacks %q", line, w)
				}
			}
			if got, want := parseReplay(t, line), tc.cfg.withDefaults(); got != want {
				t.Errorf("replay line %q rebuilds\n  %+v\nwant\n  %+v", line, got, want)
			}
		})
	}
}
