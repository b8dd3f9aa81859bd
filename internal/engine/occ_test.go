package engine

import (
	"errors"
	"sync"
	"testing"

	"adhoctx/internal/obs"
	"adhoctx/internal/storage"
)

func occEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Dialect: MySQL})
	e.CreateTable(storage.NewSchema("acct",
		storage.Column{Name: "owner", Type: storage.TString},
		storage.Column{Name: "bal", Type: storage.TInt},
	), "owner")
	return e
}

func occSeed(t *testing.T, e *Engine, rows ...[2]int64) {
	t.Helper()
	err := e.Run(ReadCommitted, func(tx *Txn) error {
		for _, r := range rows {
			if _, err := tx.Insert("acct", map[string]storage.Value{
				"id": r[0], "owner": "o", "bal": r[1],
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func occBal(t *testing.T, e *Engine, pk int64) int64 {
	t.Helper()
	var bal int64
	err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		row, err := tx.SelectOne("acct", storage.ByPK(pk))
		if err != nil {
			return err
		}
		if row == nil {
			bal = -1
			return nil
		}
		bal = row.Get(e.Schema("acct"), "bal").(int64)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bal
}

// TestOCCBasicLifecycle: insert/read/update/delete through a ModeOCC
// transaction behave like their pessimistic counterparts.
func TestOCCBasicLifecycle(t *testing.T) {
	e := occEngine(t)
	var pk int64
	err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		if tx.Mode() != ModeOCC {
			t.Fatalf("Mode() = %v", tx.Mode())
		}
		var err error
		pk, err = tx.Insert("acct", map[string]storage.Value{"owner": "a", "bal": int64(10)})
		if err != nil {
			return err
		}
		// Own buffered write visible before commit.
		row, err := tx.SelectOne("acct", storage.ByPK(pk))
		if err != nil {
			return err
		}
		if row == nil {
			t.Fatal("buffered insert invisible to own read")
		}
		if _, err := tx.Update("acct", storage.ByPK(pk), map[string]storage.Value{"bal": storage.Inc(5)}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := occBal(t, e, pk); got != 15 {
		t.Fatalf("bal = %d, want 15", got)
	}
	if e.Stats().OCCCommits < 1 {
		t.Fatal("OCCCommits not counted")
	}

	// Delete, then verify absence and WAL durability via crash recovery.
	err = e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		n, err := tx.Delete("acct", storage.ByPK(pk))
		if n != 1 {
			t.Fatalf("delete changed %d rows", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := occBal(t, e, pk); got != -1 {
		t.Fatalf("deleted row recovered with bal %d", got)
	}
}

// TestOCCFirstCommitterWins: of two optimistic RMWs on one row, the second
// committer aborts with ErrOCCConflict and a retry lands its increment.
func TestOCCFirstCommitterWins(t *testing.T) {
	e := occEngine(t)
	occSeed(t, e, [2]int64{1, 100})

	t1 := e.BeginMode(ModeOCC, IsolationDefault)
	t2 := e.BeginMode(ModeOCC, IsolationDefault)
	rmw := func(tx *Txn) error {
		row, err := tx.SelectOne("acct", storage.ByPK(1))
		if err != nil {
			return err
		}
		bal := row.Get(e.Schema("acct"), "bal").(int64)
		_, err = tx.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": bal + 10})
		return err
	}
	if err := rmw(t1); err != nil {
		t.Fatal(err)
	}
	if err := rmw(t2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t2.Commit()
	if !errors.Is(err, ErrOCCConflict) {
		t.Fatalf("second committer: %v, want ErrOCCConflict", err)
	}
	if !IsRetryable(err) {
		t.Fatal("ErrOCCConflict not retryable")
	}
	if !t2.Done() {
		t.Fatal("conflicted txn not rolled back")
	}
	if e.Stats().OCCConflicts != 1 {
		t.Fatalf("OCCConflicts = %d", e.Stats().OCCConflicts)
	}
	// Retry with a fresh snapshot succeeds and sees the first commit.
	if err := e.RunMode(ModeOCC, IsolationDefault, rmw); err != nil {
		t.Fatal(err)
	}
	if got := occBal(t, e, 1); got != 120 {
		t.Fatalf("bal = %d, want 120", got)
	}
}

// TestOCCWriteSkewPrevented: the classic two-row write skew — each txn reads
// both rows and writes the other one — cannot commit on both sides because
// validation covers the full read set, not just the written rows.
func TestOCCWriteSkewPrevented(t *testing.T) {
	e := occEngine(t)
	occSeed(t, e, [2]int64{1, 1}, [2]int64{2, 1})

	readBoth := func(tx *Txn) (int64, error) {
		var sum int64
		for _, pk := range []int64{1, 2} {
			row, err := tx.SelectOne("acct", storage.ByPK(pk))
			if err != nil {
				return 0, err
			}
			sum += row.Get(e.Schema("acct"), "bal").(int64)
		}
		return sum, nil
	}
	t1 := e.BeginMode(ModeOCC, IsolationDefault)
	t2 := e.BeginMode(ModeOCC, IsolationDefault)
	for tx, victim := range map[*Txn]int64{t1: 1, t2: 2} {
		sum, err := readBoth(tx)
		if err != nil {
			t.Fatal(err)
		}
		if sum > 1 {
			if _, err := tx.Update("acct", storage.ByPK(victim), map[string]storage.Value{"bal": int64(0)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	err1, err2 := t1.Commit(), t2.Commit()
	if err1 == nil && err2 == nil {
		t.Fatal("both write-skew halves committed")
	}
	if got := occBal(t, e, 1) + occBal(t, e, 2); got < 1 {
		t.Fatalf("invariant sum >= 1 violated: %d", got)
	}
}

// TestOCCPhantomInsertConflicts: a point read that observed absence
// conflicts with a concurrent committed insert of that key.
func TestOCCPhantomInsertConflicts(t *testing.T) {
	e := occEngine(t)
	t1 := e.BeginMode(ModeOCC, IsolationDefault)
	// t1 checks id=7 does not exist, then inserts a marker elsewhere.
	row, err := t1.SelectOne("acct", storage.ByPK(7))
	if err != nil || row != nil {
		t.Fatalf("row=%v err=%v", row, err)
	}
	if _, err := t1.Insert("acct", map[string]storage.Value{"id": int64(50), "owner": "m", "bal": int64(0)}); err != nil {
		t.Fatal(err)
	}
	// Concurrent insert of id=7 commits first.
	if err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		_, err := tx.Insert("acct", map[string]storage.Value{"id": int64(7), "owner": "x", "bal": int64(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrOCCConflict) {
		t.Fatalf("commit after phantom insert: %v, want ErrOCCConflict", err)
	}
}

// TestOCCAgainstPessimisticWriter: a 2PL commit in the OCC validation window
// conflicts; an OCC commit while a 2PL txn merely holds the row lock
// conflicts too (locked-but-unwritten rows are not safely overwritable).
func TestOCCAgainstPessimisticWriter(t *testing.T) {
	e := occEngine(t)
	occSeed(t, e, [2]int64{1, 100})

	// Committed 2PL write inside the window → validation failure.
	t1 := e.BeginMode(ModeOCC, IsolationDefault)
	if _, err := t1.SelectOne("acct", storage.ByPK(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": int64(0)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": storage.Inc(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrOCCConflict) {
		t.Fatalf("OCC commit over 2PL commit: %v, want ErrOCCConflict", err)
	}

	// Row lock held (no write yet) → commit-time probe conflicts.
	t2 := e.BeginMode(ModeOCC, IsolationDefault)
	if _, err := t2.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": int64(7)}); err != nil {
		t.Fatal(err)
	}
	holder := e.Begin(IsolationDefault)
	if _, err := holder.Select("acct", storage.ByPK(1), ForUpdate); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrOCCConflict) {
		t.Fatalf("OCC commit under held row lock: %v, want ErrOCCConflict", err)
	}
	if err := holder.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestOCCReadPathTouchesNoLocks is the acceptance assertion: a full OCC
// workload — scans, point reads, inserts, updates, deletes, conflicts —
// performs zero blocking lock-manager acquisitions and zero lock waits.
// Read-only transactions perform zero try-acquires too (the only lockmgr
// traffic OCC ever generates is the commit-time non-blocking write-row
// probe).
func TestOCCReadPathTouchesNoLocks(t *testing.T) {
	e := occEngine(t)
	reg := obs.NewRegistry()
	e.WireObs(reg)
	occSeed(t, e, [2]int64{1, 10}, [2]int64{2, 20}, [2]int64{3, 30})
	baseTry := reg.Counter("lock_try_acquires_total").Value()

	// Read-only: scans and point reads.
	err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		if _, err := tx.Select("acct", storage.All{}); err != nil {
			return err
		}
		_, err := tx.SelectOne("acct", storage.ByPK(2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("lock_try_acquires_total").Value() - baseTry; got != 0 {
		t.Fatalf("read-only OCC txn performed %d try-acquires", got)
	}

	// Read-write workload, including a conflict/retry.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for {
					err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
						_, err := tx.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": storage.Inc(1)})
						return err
					})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOCCConflict) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	err = e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		if _, err := tx.Insert("acct", map[string]storage.Value{"owner": "z", "bal": int64(1)}); err != nil {
			return err
		}
		_, err := tx.Delete("acct", storage.ByPK(3))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("lock_acquires_total").Value(); got != 0 {
		t.Fatalf("OCC workload performed %d blocking lock acquisitions, want 0", got)
	}
	if got := reg.Counter("lock_waits_total").Value(); got != 0 {
		t.Fatalf("OCC workload waited on %d locks, want 0", got)
	}
	if got := occBal(t, e, 1); got != 90 {
		t.Fatalf("bal = %d, want 90", got)
	}
}

// TestOCCSavepointsUnsupported: savepoints require an applied undo log.
func TestOCCSavepointsUnsupported(t *testing.T) {
	e := occEngine(t)
	tx := e.BeginMode(ModeOCC, IsolationDefault)
	if err := tx.Savepoint("sp"); err == nil {
		t.Fatal("Savepoint succeeded in OCC mode")
	}
	if err := tx.RollbackTo("sp"); err == nil {
		t.Fatal("RollbackTo succeeded in OCC mode")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestOCCRollbackDiscardsBuffer: rolled-back buffered writes never become
// visible and leave no trace in the store.
func TestOCCRollbackDiscardsBuffer(t *testing.T) {
	e := occEngine(t)
	occSeed(t, e, [2]int64{1, 5})
	tx := e.BeginMode(ModeOCC, IsolationDefault)
	if _, err := tx.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": int64(99)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("acct", map[string]storage.Value{"owner": "gone", "bal": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := occBal(t, e, 1); got != 5 {
		t.Fatalf("bal = %d, want 5", got)
	}
	rows := 0
	if err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
		rs, err := tx.Select("acct", storage.All{})
		rows = len(rs)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("%d rows after rollback, want 1", rows)
	}
}

// TestOCCModeDefaultFromConfig: Config.Mode makes Begin/Run optimistic.
func TestOCCModeDefaultFromConfig(t *testing.T) {
	e := New(Config{Dialect: MySQL, Mode: ModeOCC})
	e.CreateTable(storage.NewSchema("t",
		storage.Column{Name: "v", Type: storage.TInt},
	))
	tx := e.Begin(IsolationDefault)
	if tx.Mode() != ModeOCC {
		t.Fatalf("Begin mode = %v, want occ", tx.Mode())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if Mode2PL.String() != "2pl" || ModeOCC.String() != "occ" {
		t.Fatal("Mode.String mismatch")
	}
}

// TestOCCCommitRacingCrashLeavesNothingDurable: Commit checks the crashed
// flag before it takes the store latch, so a crash can land between the two.
// The commit must look again under the latch: by then Crash has emptied the
// tables and the validation log, and a transaction validating against the
// empty log passes, applies its stale write and appends it to the WAL — a
// durable lost update once recovery replays it. The chaos OCC sweep found
// this at a few failing seeds per hundred. Each round here dooms one
// transaction (its read is overwritten by a durable commit), then races its
// Commit against Crash: whichever wins, its write must never be recovered.
func TestOCCCommitRacingCrashLeavesNothingDurable(t *testing.T) {
	var e *Engine
	setBal := func(tx *Txn, bal int64) error {
		_, err := tx.Update("acct", storage.ByPK(1), map[string]storage.Value{"bal": bal})
		return err
	}
	const doomedBal = -999
	for round := int64(1); round <= 3000; round++ {
		if round%300 == 1 { // a fresh engine now and then keeps WAL replay short
			e = occEngine(t)
			occSeed(t, e, [2]int64{1, 0})
		}
		doomed := e.BeginMode(ModeOCC, IsolationDefault)
		if _, err := doomed.SelectOne("acct", storage.ByPK(1)); err != nil {
			t.Fatal(err)
		}
		if err := setBal(doomed, doomedBal); err != nil {
			t.Fatal(err)
		}
		// A durable commit to the row it read: doomed can no longer validate.
		if err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error { return setBal(tx, round) }); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var gate sync.WaitGroup
		gate.Add(1)
		wg.Add(2)
		var commitErr error
		go func() { defer wg.Done(); gate.Wait(); commitErr = doomed.Commit() }()
		go func() { defer wg.Done(); gate.Wait(); e.Crash() }()
		gate.Done()
		wg.Wait()
		if commitErr == nil {
			t.Fatalf("round %d: a transaction whose read was overwritten committed", round)
		}
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := occBal(t, e, 1); got != round {
			t.Fatalf("round %d: recovered balance %d, want %d: the commit that raced the crash became durable",
				round, got, round)
		}
	}
}
