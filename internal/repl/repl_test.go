package repl

import (
	"fmt"
	"testing"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

func newEngine(t *testing.T, crash *sim.CrashPlan, group bool) *engine.Engine {
	t.Helper()
	return newEngineWith(engine.Config{GroupCommit: group, Crash: crash})
}

// newEngineWith is newEngine for tests that set other Config fields (WAL
// latency, WAL device).
func newEngineWith(cfg engine.Config) *engine.Engine {
	cfg.Dialect = engine.MySQL
	eng := engine.New(cfg)
	eng.CreateTable(storage.NewSchema("accounts",
		storage.Column{Name: "bal", Type: storage.TInt},
	))
	return eng
}

func commitRow(t *testing.T, eng *engine.Engine, bal int64) int64 {
	t.Helper()
	txn := eng.Begin(engine.IsolationDefault)
	pk, err := txn.Insert("accounts", map[string]storage.Value{"bal": bal})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return pk
}

func countRows(t *testing.T, eng *engine.Engine) int {
	t.Helper()
	txn := eng.Begin(engine.IsolationDefault)
	defer txn.Rollback()
	rows, err := txn.Select("accounts", storage.All{})
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	return len(rows)
}

func hasRow(t *testing.T, eng *engine.Engine, pk int64) bool {
	t.Helper()
	txn := eng.Begin(engine.IsolationDefault)
	defer txn.Rollback()
	row, err := txn.SelectOne("accounts", storage.ByPK(pk))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	return row != nil
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func startLeader(t *testing.T, eng *engine.Engine, cfg LeaderConfig) *Leader {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	l := NewLeader(eng, cfg)
	if err := l.Start(); err != nil {
		t.Fatalf("leader start: %v", err)
	}
	t.Cleanup(l.Close)
	return l
}

func startFollower(t *testing.T, eng *engine.Engine, cfg FollowerConfig) *Follower {
	t.Helper()
	f := NewFollower(eng, cfg)
	f.Start()
	t.Cleanup(f.Stop)
	return f
}

// TestSemiSyncCommitWaitsForFollower: after a semi-sync commit returns, the
// committed row is already durable and visible on the follower — no polling
// needed, because the ack was held until the follower acked the batch.
func TestSemiSyncCommitWaitsForFollower(t *testing.T) {
	le := newEngine(t, nil, true)
	fe := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: SemiSync})
	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})

	for i := 0; i < 20; i++ {
		pk := commitRow(t, le, int64(i))
		if got, want := f.AppliedLSN(), le.AppliedLSN(); got < want {
			t.Fatalf("commit %d acked with follower at LSN %d < leader %d", i, got, want)
		}
		if !hasRow(t, fe, pk) {
			t.Fatalf("commit %d acked but row %d not on follower", i, pk)
		}
	}
}

// TestFollowerCatchUp: a follower subscribing late receives the historical
// log as snapshot frames, then rides the live stream.
func TestFollowerCatchUp(t *testing.T) {
	le := newEngine(t, nil, false)
	fe := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: Async})

	for i := 0; i < 10; i++ {
		commitRow(t, le, int64(i))
	}
	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})
	waitUntil(t, "catch-up", func() bool { return f.AppliedLSN() >= le.AppliedLSN() })
	if n := countRows(t, fe); n != 10 {
		t.Fatalf("follower has %d rows after catch-up, want 10", n)
	}

	for i := 10; i < 15; i++ {
		commitRow(t, le, int64(i))
	}
	waitUntil(t, "live stream", func() bool { return f.AppliedLSN() >= le.AppliedLSN() })
	if n := countRows(t, fe); n != 15 {
		t.Fatalf("follower has %d rows after live stream, want 15", n)
	}
}

// TestReconnectResubscribesIdempotently: cutting the stream mid-run loses
// nothing and duplicates nothing — the follower resubscribes from its
// durable frontier and overlapping redelivery is skipped by LSN.
func TestReconnectResubscribesIdempotently(t *testing.T) {
	le := newEngine(t, nil, false)
	fe := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: Async})
	f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})

	for i := 0; i < 5; i++ {
		commitRow(t, le, int64(i))
	}
	waitUntil(t, "first sync", func() bool { return f.AppliedLSN() >= le.AppliedLSN() })

	f.Retarget(l.Addr()) // cuts the stream; reconnects to the same leader
	for i := 5; i < 10; i++ {
		commitRow(t, le, int64(i))
	}
	waitUntil(t, "resync", func() bool { return f.AppliedLSN() >= le.AppliedLSN() })
	if n := countRows(t, fe); n != 10 {
		t.Fatalf("follower has %d rows after reconnect, want 10", n)
	}
}

// TestApplyReplicatedIsIdempotent: redelivering the whole log is a no-op.
func TestApplyReplicatedIsIdempotent(t *testing.T) {
	le := newEngine(t, nil, false)
	fe := newEngine(t, nil, false)
	for i := 0; i < 7; i++ {
		commitRow(t, le, int64(i))
	}
	raw := le.WALBytes()
	first, err := fe.ApplyReplicated(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fe.ApplyReplicated(raw)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("applied LSN moved on redelivery: %d -> %d", first, again)
	}
	if n := countRows(t, fe); n != 7 {
		t.Fatalf("follower has %d rows after double apply, want 7", n)
	}
}

// TestMajorityQuorum: with a 3-replica set, one follower ack satisfies the
// majority (leader + 1 of 2 followers).
func TestMajorityQuorum(t *testing.T) {
	le := newEngine(t, nil, true)
	fe1 := newEngine(t, nil, false)
	fe2 := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: Majority, Replicas: 3})
	f1 := startFollower(t, fe1, FollowerConfig{LeaderAddr: l.Addr()})
	f2 := startFollower(t, fe2, FollowerConfig{LeaderAddr: l.Addr()})

	pk := commitRow(t, le, 1)
	if f1.AppliedLSN() < le.AppliedLSN() && f2.AppliedLSN() < le.AppliedLSN() {
		t.Fatal("majority commit acked with no follower at the commit LSN")
	}
	waitUntil(t, "full replication", func() bool {
		return f1.AppliedLSN() >= le.AppliedLSN() && f2.AppliedLSN() >= le.AppliedLSN()
	})
	if !hasRow(t, fe1, pk) || !hasRow(t, fe2, pk) {
		t.Fatal("row missing on a follower after full replication")
	}
}

// TestAckTimeoutDegrades: a semi-sync leader with no followers and a
// degrade window acks after the timeout instead of wedging commits forever.
func TestAckTimeoutDegrades(t *testing.T) {
	le := newEngine(t, nil, false)
	l := startLeader(t, le, LeaderConfig{Quorum: SemiSync, AckTimeout: 20 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		commitRow(t, le, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("degraded semi-sync commit never returned")
	}
	if l.Degrades() == 0 {
		t.Fatal("degrade not counted")
	}
}

// TestSemiSyncCrashBeforeShipLosesNoAckedCommit is the acceptance-criteria
// proof that a semi-sync ack is never returned before the batch is durable
// on at least one follower. The leader is killed at repl/ship:before — after
// its local fsync, before any follower saw the batch. The dying commit must
// NOT have been acknowledged (the crash error is its "ack"), and promoting
// the follower must surface every commit that WAS acknowledged.
func TestSemiSyncCrashBeforeShipLosesNoAckedCommit(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			plan := &sim.CrashPlan{}
			le := newEngine(t, plan, group)
			fe := newEngine(t, nil, false)
			l := startLeader(t, le, LeaderConfig{Quorum: SemiSync, Epoch: 1})
			f := startFollower(t, fe, FollowerConfig{LeaderAddr: l.Addr()})

			acked := make([]int64, 0, 5)
			for i := 0; i < 5; i++ {
				acked = append(acked, commitRow(t, le, int64(i)))
			}

			plan.Arm(wal.CrashPointShipBefore, 1)
			err := func() (err error) {
				defer func() { err = sim.RecoverCrash(recover(), err) }()
				txn := le.Begin(engine.IsolationDefault)
				if _, ierr := txn.Insert("accounts", map[string]storage.Value{"bal": int64(99)}); ierr != nil {
					return ierr
				}
				return txn.Commit()
			}()
			if !sim.IsCrash(err) {
				t.Fatalf("commit at armed ship:before returned %v, want crash death", err)
			}
			// The doomed record is durable on the dead leader but was never
			// shipped — and, critically, never acknowledged.
			if f.AppliedLSN() >= le.AppliedLSN() {
				t.Fatalf("follower applied LSN %d reached the unshipped batch at %d", f.AppliedLSN(), le.AppliedLSN())
			}

			l.Close()
			promoted, perr := f.Promote(LeaderConfig{Addr: "127.0.0.1:0", Quorum: Async})
			if perr != nil {
				t.Fatalf("promote: %v", perr)
			}
			defer promoted.Close()
			if promoted.Epoch() != 2 {
				t.Fatalf("promoted epoch = %d, want 2", promoted.Epoch())
			}
			for _, pk := range acked {
				if !hasRow(t, fe, pk) {
					t.Fatalf("acknowledged commit (pk %d) missing on promoted leader", pk)
				}
			}
			// The new leader accepts writes immediately.
			commitRow(t, fe, 123)
		})
	}
}

// TestStaleLeaderEpochRejected: a follower that has seen epoch E refuses a
// stream from a leader still at E-1.
func TestStaleLeaderEpochRejected(t *testing.T) {
	stale := newEngine(t, nil, false)
	fe := newEngine(t, nil, false)
	oldLeader := startLeader(t, stale, LeaderConfig{Quorum: Async, Epoch: 1})

	f := NewFollower(fe, FollowerConfig{LeaderAddr: oldLeader.Addr(), Epoch: 5})
	f.Start()
	defer f.Stop()

	commitRow(t, stale, 1)
	// The follower must never apply anything from the epoch-1 stream: its
	// subscribe carries epoch 5 and the leader refuses the subscriber (or
	// the follower rejects the frames).
	time.Sleep(100 * time.Millisecond)
	if f.AppliedLSN() != 0 {
		t.Fatalf("follower applied LSN %d from a stale leader", f.AppliedLSN())
	}
}
