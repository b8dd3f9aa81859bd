package chaos

import (
	"testing"
	"time"
)

// TestReplicatedCleanSeed: no leader kill, no network faults — the replicated
// tier must pass every oracle, serve both transfers and follower reads, and
// never fail over.
func TestReplicatedCleanSeed(t *testing.T) {
	rep, err := Run(Config{Topology: Replicated, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean seed violated oracles:\n%s", rep.Summary())
	}
	// Every fourth op is a read, so a clean seed acks three in four.
	if rep.Acked == 0 || rep.Ops <= rep.Acked {
		t.Fatalf("workload did nothing: %d ops, %d acked transfers", rep.Ops, rep.Acked)
	}
	if len(rep.CrashPoints) != 0 || rep.Recoveries != 0 {
		t.Fatalf("leader died without a kill armed: %v", rep.CrashPoints)
	}
}

// TestReplFailoverSweep is the acceptance sweep: seeded leader kills with
// network faults on, every seed must satisfy acked⊆promoted, per-partition
// serializability, balance conservation, and zero leaked locks.
func TestReplFailoverSweep(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	start := time.Now()
	reports := runSeeds(t, 1, seeds, func(seed int64) Config {
		return Config{Topology: Replicated, Seed: seed, Crashes: 1, Faults: true}
	})
	kills, acked := 0, 0
	for _, rep := range reports {
		kills += rep.Recoveries
		acked += rep.Acked
	}
	t.Logf("%d seeds, %d leader kills, %d acked markers, %s",
		seeds, kills, acked, time.Since(start).Round(time.Millisecond))
	if kills == 0 {
		t.Fatal("no seed ever killed a leader; the failover path went unexercised")
	}
	if acked == 0 {
		t.Fatal("no acknowledged transfers; the marker oracle is vacuous")
	}
}
