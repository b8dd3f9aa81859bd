package main

import (
	"flag"
	"strings"
	"testing"

	"adhoctx/internal/chaos"
	"adhoctx/internal/scenario"
)

// TestChaosReplayRoundTrips: the replay line of a generated-mix chaos seed,
// parsed through adhocgen's flags, reruns the same spec at the same scale
// on the same Config — including a load equal to adhocchaos's defaults,
// which adhocgen does not share.
func TestChaosReplayRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale int
		cfg   chaos.Config
	}{
		{"scale", 2, chaos.Config{Seed: 4, Clients: 4, Ops: 10, Crashes: 1, Faults: true}},
		{"restart", 0, chaos.Config{Topology: chaos.Restart, Seed: 9, Clients: 4, Ops: 12, Crashes: 1, Faults: true}},
		{"adhocchaos-load", 3, chaos.Config{Seed: 1, Clients: 8, Ops: 40, Crashes: 1, Faults: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, _ := scenario.Builtin("points-transfer")
			wl, err := scenario.Mix(spec, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			run := tc.cfg
			run.Workload = wl
			line := chaos.ReplayCommand(run)

			args := strings.Fields(line)
			if len(args) < 3 || strings.Join(args[:3], " ") != "go run ./cmd/adhocgen" {
				t.Fatalf("replay line %q does not run adhocgen", line)
			}
			fs := flag.NewFlagSet("adhocgen", flag.ContinueOnError)
			cfg := chaosFlags(fs)
			name := fs.String("chaos", "", "")
			scale := fs.Int("scale", 0, "")
			seed := fs.Int64("seed", 1, "")
			seeds := fs.Int("seeds", 400, "")
			if err := fs.Parse(args[3:]); err != nil {
				t.Fatalf("adhocgen rejects its replay line %q: %v", line, err)
			}
			if *name != spec.Name || *seeds != 1 || fs.NArg() != 0 {
				t.Fatalf("replay line %q: -chaos %q -seeds %d, stray args %q", line, *name, *seeds, fs.Args())
			}
			// -scale 0 means the default scale; the line carries it resolved.
			again, err := scenario.Mix(spec, *scale)
			if err != nil {
				t.Fatal(err)
			}
			if again.Replay != wl.Replay {
				t.Fatalf("replay line %q rebuilds mix %q, want %q", line, again.Replay, wl.Replay)
			}
			got := cfg()
			got.Seed = *seed
			if got != tc.cfg {
				t.Errorf("replay line %q rebuilds\n  %+v\nwant\n  %+v", line, got, tc.cfg)
			}
		})
	}
}
