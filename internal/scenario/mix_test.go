package scenario

import (
	"strings"
	"testing"

	"adhoctx/internal/chaos"
	"adhoctx/internal/engine"
)

// TestMixSeedSatisfiesInvariants builds every builtin's mix workload and
// checks the chaos-safe invariants hold on a freshly seeded world — the
// zero-ops sanity floor for the generator.
func TestMixSeedSatisfiesInvariants(t *testing.T) {
	for _, s := range Builtins() {
		t.Run(s.Name, func(t *testing.T) {
			wl, err := Mix(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(wl.Name, "genmix/") {
				t.Errorf("workload name %q lacks the genmix/ prefix", wl.Name)
			}
			eng := engine.New(engine.Config{Dialect: engine.MySQL})
			for _, sch := range wl.Tables {
				eng.CreateTable(sch)
			}
			txn := eng.Begin(engine.IsolationDefault)
			if err := wl.Seed(txn); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			observed, viols := wl.Check(eng)
			if len(viols) != 0 {
				t.Fatalf("fresh seed violates invariants: %v", viols)
			}
			t.Logf("seed state: %s", observed)
		})
	}
}

// TestMixUnderChaos runs generated workloads through the full fault-injected
// TCP harness: network faults, a crash/recovery cycle, blind client retries.
// The correctly-locked sections must keep every chaos-safe invariant.
func TestMixUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs skipped in -short")
	}
	targets := []string{"points-transfer", "inventory-oversell", "mastodon-timeline"}
	for _, name := range targets {
		t.Run(name, func(t *testing.T) {
			s, ok := Builtin(name)
			if !ok {
				t.Fatalf("builtin %s missing", name)
			}
			wl, err := Mix(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := chaos.Run(chaos.Config{
				Seed:     7,
				Clients:  4,
				Ops:      12,
				Crashes:  1,
				Faults:   true,
				Workload: wl,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("oracle violations:\n%s", rep.Summary())
			}
			if rep.Workload != wl.Name {
				t.Errorf("report workload %q, want %q", rep.Workload, wl.Name)
			}
			t.Logf("%d ops ok (%d failed), %d committed, observed: %s",
				rep.Ops, rep.OpErrs, rep.Committed, rep.Observed)
		})
	}
}

// TestMixRestartChaos runs one generated family through restart-mode chaos:
// the whole stack is killed and re-opened from the data directory, and the
// invariants must hold in the state recovered by the final cold open.
func TestMixRestartChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs skipped in -short")
	}
	s, ok := Builtin("points-transfer")
	if !ok {
		t.Fatal("builtin points-transfer missing")
	}
	wl, err := Mix(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chaos.Run(chaos.Config{
		Topology: chaos.Restart,
		Seed:     3,
		Clients:  3,
		Ops:      10,
		Crashes:  1,
		Workload: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("oracle violations:\n%s", rep.Summary())
	}
	t.Logf("restarts=%d acked=%d observed: %s", rep.Recoveries, rep.Acked, rep.Observed)
}
