package chaos

import (
	"testing"

	"adhoctx/internal/engine"
	"adhoctx/internal/faults"
	"adhoctx/internal/obs"
)

// shortConfig is a CI-sized in-process run: full fault schedule, one crash
// cycle.
func shortConfig(seed int64) Config {
	return Config{Seed: seed, Clients: 4, Ops: 20, Rows: 6, Crashes: 1, Faults: true}
}

// runSeeds runs n consecutive seeds from first and fails the test on a
// harness error or any oracle violation.
func runSeeds(t *testing.T, first int64, n int, mk func(seed int64) Config) []*Report {
	t.Helper()
	var reports []*Report
	for s := first; s < first+int64(n); s++ {
		rep, err := Run(mk(s))
		if err != nil {
			t.Fatalf("seed %d: harness: %v", s, err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d violated oracles:\n%s", s, rep.Summary())
		}
		reports = append(reports, rep)
	}
	return reports
}

// TestChaosSeedsPass sweeps several seeds of the full fault schedule and
// requires every oracle to hold on each. This is the in-tree slice of the
// acceptance run; cmd/adhocchaos covers ≥20 seeds.
func TestChaosSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	reports := runSeeds(t, 1, 5, shortConfig)
	// The sweep must actually have exercised the fault paths, or the pass
	// is vacuous.
	var totalFaults, totalCrashes, acked int64
	for _, r := range reports {
		for _, n := range r.Faults {
			totalFaults += n
		}
		totalCrashes += int64(len(r.CrashPoints))
		acked += int64(r.Acked)
	}
	if totalFaults == 0 {
		t.Fatal("no network faults injected across 5 seeds")
	}
	if totalCrashes == 0 {
		t.Fatal("no crash points fired across 5 seeds")
	}
	if acked == 0 {
		t.Fatal("no acknowledged commits; the marker oracle is vacuous")
	}
}

// TestCrashRecoveryMidCommit is the acceptance criterion in isolation: a
// crash-point kill during COMMIT followed by restart must recover the WAL,
// and the pooled clients must reconnect and complete every transfer without
// manual intervention. Network faults are off so any failed transfer is a
// recovery bug, not retry exhaustion.
func TestCrashRecoveryMidCommit(t *testing.T) {
	cfg := Config{Seed: 7, Clients: 4, Ops: 25, Rows: 6, Crashes: 2}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("violations: %v\nreplay: %s", rep.Violations, rep.Replay)
	}
	if len(rep.CrashPoints) == 0 {
		t.Fatal("no crash point fired; the test exercised nothing")
	}
	if rep.Recoveries != len(rep.CrashPoints) {
		t.Fatalf("recoveries = %d, crashes = %d", rep.Recoveries, len(rep.CrashPoints))
	}
	if rep.OpErrs != 0 {
		t.Fatalf("%d transfers failed despite no network faults: clients did not ride through recovery", rep.OpErrs)
	}
	if rep.Ops != cfg.Clients*cfg.Ops || rep.Acked != rep.Ops {
		t.Fatalf("completed %d transfers (%d acked), want %d", rep.Ops, rep.Acked, cfg.Clients*cfg.Ops)
	}
}

// TestSameSeedSameFaultSchedule pins replayability at the harness level, in
// every topology: a rerun of a seed injects the same per-kind network fault
// counts only when the scheduler cooperates, but the crash points — driven
// entirely by the supervisor's seeded rng — must be identical.
func TestSameSeedSameFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos rerun skipped in -short")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"in-process", shortConfig(3)},
		{"restart", Config{Topology: Restart, Seed: 3, Clients: 4, Ops: 12, Rows: 6, Crashes: 1, Faults: true}},
		{"replicated", Config{Topology: Replicated, Seed: 3, Clients: 3, Ops: 16, Crashes: 1, Faults: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Failed() || b.Failed() {
				t.Fatalf("violations: %v / %v", a.Violations, b.Violations)
			}
			if len(a.CrashPoints) == 0 || len(a.CrashPoints) != len(b.CrashPoints) {
				t.Fatalf("crash counts differ across reruns (or none fired): %v vs %v", a.CrashPoints, b.CrashPoints)
			}
			for i := range a.CrashPoints {
				if a.CrashPoints[i] != b.CrashPoints[i] {
					t.Fatalf("crash schedule differs: %v vs %v", a.CrashPoints, b.CrashPoints)
				}
			}
		})
	}
}

// TestObsWiring: fault counters land on the provided registry.
func TestObsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := shortConfig(11)
	cfg.Crashes = 0
	cfg.Obs = reg
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	var onReg int64
	for _, k := range faults.Kinds {
		onReg += reg.Counter(`faults_injected_total{kind="` + k.String() + `"}`).Value()
	}
	var inReport int64
	for _, n := range rep.Faults {
		inReport += n
	}
	if onReg != inReport {
		t.Fatalf("registry counts %d faults, report %d", onReg, inReport)
	}
}

// TestChaosGroupCommitSeedsPass sweeps the group-commit configuration over
// a real (simulated) flush bottleneck with a sharded lock manager: every
// oracle must hold while batches are killed mid-flush by the
// wal/groupcommit crash points.
func TestChaosGroupCommitSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	reports := runSeeds(t, 1, 5, func(seed int64) Config {
		cfg := shortConfig(seed)
		cfg.GroupCommit, cfg.Fsync, cfg.LockShards = true, 500e3, 4
		return cfg
	})
	var crashes int
	for _, r := range reports {
		crashes += len(r.CrashPoints)
	}
	if crashes == 0 {
		t.Fatal("no crash points fired across the group-commit sweep")
	}
}

// TestChaosOCCSeedsPass sweeps 20 seeds of the transfer workload run as
// optimistic transactions under the full fault schedule plus crash points —
// including the engine's OCC validate/commit points, which kill the process
// inside the visible-but-not-durable commit window. Every seed must satisfy
// the same oracles as the pessimistic sweep.
func TestChaosOCCSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	reports := runSeeds(t, 1, 20, func(seed int64) Config {
		cfg := shortConfig(seed)
		cfg.Ops, cfg.OCC = 15, true
		return cfg
	})
	var totalFaults, totalCrashes, occCrashes int64
	for _, r := range reports {
		if r.Workload != "transfer-occ" {
			t.Fatalf("seed %d ran workload %q, want transfer-occ", r.Seed, r.Workload)
		}
		for _, n := range r.Faults {
			totalFaults += n
		}
		totalCrashes += int64(len(r.CrashPoints))
		for _, p := range r.CrashPoints {
			if p == engine.CrashPointOCCValidate || p == engine.CrashPointOCCCommit {
				occCrashes++
			}
		}
	}
	if totalFaults == 0 {
		t.Fatal("no network faults injected across the OCC sweep")
	}
	if totalCrashes == 0 {
		t.Fatal("no crash points fired across the OCC sweep")
	}
	// Across 20 seeds with the OCC points in a rotation of four, at least one
	// crash must have landed on an OCC point, or the new window went untested.
	if occCrashes == 0 {
		t.Fatal("no OCC validate/commit crash points fired across 20 seeds")
	}
}

// TestConfigCheck: combinations a topology cannot run are harness errors,
// reported before anything boots.
func TestConfigCheck(t *testing.T) {
	for _, cfg := range []Config{
		{Topology: Restart, OCC: true},
		{Topology: Restart, GroupCommit: true},
		{Topology: Restart, Fsync: 1},
		{Topology: Restart, LockShards: 2},
		{Topology: Replicated, OCC: true},
		{Topology: Replicated, Crashes: 2},
		{Topology: Replicated, Workload: transferWorkload([]int64{1, 2}, false)},
		{OCC: true, Workload: transferWorkload([]int64{1, 2}, false)},
		{Workload: transferWorkload([]int64{1, 2}, true)},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) succeeded, want a config error", cfg)
		}
	}
}
