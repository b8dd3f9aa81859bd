package chaos

import (
	"os"
	"strings"
	"testing"

	"adhoctx/internal/engine"
)

// TestRestartCleanSeed: no crashes, no network faults — every transfer must
// succeed, the cold re-open must rebuild exactly the acked state, and the
// passing seed's data directory is removed.
func TestRestartCleanSeed(t *testing.T) {
	rep, err := Run(Config{Topology: Restart, Seed: 1, Clients: 3, Ops: 8, Rows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean seed failed:\n%s", rep.Summary())
	}
	if rep.OpErrs != 0 || rep.Acked != 3*8 {
		t.Fatalf("clean seed: %d ops failed, %d acked, want 0 and 24", rep.OpErrs, rep.Acked)
	}
	if len(rep.CrashPoints) != 0 {
		t.Fatalf("crashes fired with none armed: %v", rep.CrashPoints)
	}
	if rep.Dir != "" {
		t.Fatalf("passing seed kept its data dir %q", rep.Dir)
	}
}

// TestRestartSeedsPass sweeps seeds through full restart chaos: crash points
// armed, the whole stack killed and re-opened from disk, oracles on the
// recovered state.
func TestRestartSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("restart chaos sweep is slow")
	}
	reports := runSeeds(t, 1, 6, func(seed int64) Config {
		return Config{Topology: Restart, Seed: seed, Clients: 4, Ops: 12, Rows: 6, Crashes: 2}
	})
	crashes := 0
	for _, rep := range reports {
		crashes += len(rep.CrashPoints)
		// Every crash is one kill and one boot from the directory.
		if rep.Recoveries != len(rep.CrashPoints) {
			t.Fatalf("seed %d: %d restarts for %d crashes", rep.Seed, rep.Recoveries, len(rep.CrashPoints))
		}
		if rep.Acked == 0 {
			t.Fatalf("seed %d: no transfer was ever acknowledged", rep.Seed)
		}
	}
	// The sweep as a whole must have actually crashed somewhere, or it
	// tested nothing.
	if crashes == 0 {
		t.Fatal("sweep fired no crash points")
	}
}

// TestRestartWithNetworkFaults layers the network fault plan on top of the
// restart cycle — torn connections AND torn processes.
func TestRestartWithNetworkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("restart chaos with faults is slow")
	}
	rep, err := Run(Config{Topology: Restart, Seed: 7, Clients: 4, Ops: 10, Rows: 6, Crashes: 1, Faults: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed with network faults failed:\n%s", rep.Summary())
	}
}

// TestRestartKeepsFailingDir: a seed that fails its oracles keeps its data
// directory for inspection and names it in the summary.
func TestRestartKeepsFailingDir(t *testing.T) {
	wl := transferWorkload([]int64{1, 2, 3, 4}, false)
	wl.Check = func(*engine.Engine) (string, []string) { return "", []string{"forced"} }
	rep, err := Run(Config{Topology: Restart, Seed: 1, Clients: 2, Ops: 3, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(rep.Dir)
	if !rep.Failed() || rep.Dir == "" {
		t.Fatalf("failing seed: dir %q, violations %v", rep.Dir, rep.Violations)
	}
	if _, err := os.Stat(rep.Dir); err != nil {
		t.Fatalf("failing seed's data dir is gone: %v", err)
	}
	if !strings.Contains(rep.Summary(), rep.Dir) {
		t.Fatalf("summary does not name the kept dir:\n%s", rep.Summary())
	}
}
