package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhoctx/internal/storage"
)

func newTestEngine(t *testing.T, d DialectKind) *Engine {
	t.Helper()
	e := New(Config{Dialect: d, LockTimeout: 5 * time.Second})
	e.CreateTable(storage.NewSchema("skus",
		storage.Column{Name: "product_id", Type: storage.TInt},
		storage.Column{Name: "quantity", Type: storage.TInt},
	), "product_id")
	e.CreateTable(storage.NewSchema("payments",
		storage.Column{Name: "order_id", Type: storage.TInt},
		storage.Column{Name: "amount", Type: storage.TFloat},
	), "order_id")
	return e
}

func mustInsert(t *testing.T, e *Engine, table string, vals map[string]storage.Value) int64 {
	t.Helper()
	var pk int64
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		var err error
		pk, err = tx.Insert(table, vals)
		return err
	})
	if err != nil {
		t.Fatalf("insert into %s: %v", table, err)
	}
	return pk
}

func readQuantity(t *testing.T, e *Engine, pk int64) int64 {
	t.Helper()
	var q int64
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		row, err := tx.SelectOne("skus", storage.ByPK(pk))
		if err != nil {
			return err
		}
		q = row.Get(e.Schema("skus"), "quantity").(int64)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBasicCRUD(t *testing.T) {
	for _, d := range []DialectKind{MySQL, Postgres} {
		t.Run(d.String(), func(t *testing.T) {
			e := newTestEngine(t, d)
			pk := mustInsert(t, e, "skus", map[string]storage.Value{
				"product_id": int64(7), "quantity": int64(10),
			})
			if pk != 1 {
				t.Fatalf("first auto pk = %d", pk)
			}
			pk2 := mustInsert(t, e, "skus", map[string]storage.Value{
				"product_id": int64(7), "quantity": int64(3),
			})
			if pk2 != 2 {
				t.Fatalf("second auto pk = %d", pk2)
			}

			// Select via secondary index.
			err := e.Run(IsolationDefault, func(tx *Txn) error {
				rows, err := tx.Select("skus", storage.Eq{Col: "product_id", Val: int64(7)})
				if err != nil {
					return err
				}
				if len(rows) != 2 {
					t.Fatalf("index select returned %d rows", len(rows))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// Update and re-read.
			err = e.Run(IsolationDefault, func(tx *Txn) error {
				n, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(9)})
				if err != nil {
					return err
				}
				if n != 1 {
					t.Fatalf("update touched %d rows", n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if q := readQuantity(t, e, pk); q != 9 {
				t.Fatalf("quantity = %d, want 9", q)
			}

			// Delete.
			err = e.Run(IsolationDefault, func(tx *Txn) error {
				n, err := tx.Delete("skus", storage.ByPK(pk2))
				if n != 1 || err != nil {
					t.Fatalf("delete: n=%d err=%v", n, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = e.Run(IsolationDefault, func(tx *Txn) error {
				row, err := tx.SelectOne("skus", storage.ByPK(pk2))
				if err != nil {
					return err
				}
				if row != nil {
					t.Fatalf("deleted row still visible: %v", row)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertExplicitAndDuplicatePK(t *testing.T) {
	e := newTestEngine(t, Postgres)
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		if _, err := tx.Insert("skus", map[string]storage.Value{
			"id": int64(100), "product_id": int64(1), "quantity": int64(1),
		}); err != nil {
			return err
		}
		_, err := tx.Insert("skus", map[string]storage.Value{
			"id": int64(100), "product_id": int64(1), "quantity": int64(1),
		})
		if !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("dup insert err = %v", err)
		}
		// Auto-increment continues past explicit keys.
		pk, err := tx.Insert("skus", map[string]storage.Value{
			"product_id": int64(1), "quantity": int64(1),
		})
		if err != nil {
			return err
		}
		if pk != 101 {
			t.Fatalf("auto pk after explicit 100 = %d", pk)
		}
		return nil
	})
	if err != ErrDuplicateKey && err != nil {
		t.Fatal(err)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	e := newTestEngine(t, MySQL)
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Select("ghosts", storage.All{})
		return err
	})
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v, want ErrNoTable", err)
	}
	err = e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Insert("skus", map[string]storage.Value{"ghost": int64(1)})
		return err
	})
	if err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestReadCommittedSeesNewCommits(t *testing.T) {
	e := newTestEngine(t, Postgres) // PG defaults to RC
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

	reader := e.Begin(ReadCommitted)
	row, err := reader.SelectOne("skus", storage.ByPK(pk))
	if err != nil || row == nil {
		t.Fatalf("first read: %v %v", row, err)
	}
	if got := row.Get(e.Schema("skus"), "quantity"); got != int64(5) {
		t.Fatalf("first read quantity = %v", got)
	}

	// A concurrent committed update becomes visible to the next statement.
	err = e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	row, err = reader.SelectOne("skus", storage.ByPK(pk))
	if err != nil {
		t.Fatal(err)
	}
	if got := row.Get(e.Schema("skus"), "quantity"); got != int64(4) {
		t.Fatalf("RC second read quantity = %v, want 4", got)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatableReadPinsSnapshot(t *testing.T) {
	for _, d := range []DialectKind{MySQL, Postgres} {
		t.Run(d.String(), func(t *testing.T) {
			e := newTestEngine(t, d)
			pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

			reader := e.Begin(RepeatableRead)
			if _, err := reader.SelectOne("skus", storage.ByPK(pk)); err != nil {
				t.Fatal(err)
			}
			err := e.Run(IsolationDefault, func(tx *Txn) error {
				_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(1)})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			row, err := reader.SelectOne("skus", storage.ByPK(pk))
			if err != nil {
				t.Fatal(err)
			}
			if got := row.Get(e.Schema("skus"), "quantity"); got != int64(5) {
				t.Fatalf("RR re-read quantity = %v, want snapshot value 5", got)
			}
			if err := reader.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMySQLRepeatableReadLostUpdate demonstrates the anomaly §3.1.1 builds
// on: under MySQL Repeatable Read, SELECT-then-UPDATE read–modify–writes
// lose updates because the SELECT is a snapshot read and the UPDATE is a
// current read.
func TestMySQLRepeatableReadLostUpdate(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})
	schema := e.Schema("skus")

	t1 := e.Begin(RepeatableRead)
	t2 := e.Begin(RepeatableRead)

	rmw := func(tx *Txn) int64 {
		row, err := tx.SelectOne("skus", storage.ByPK(pk))
		if err != nil {
			t.Fatal(err)
		}
		return row.Get(schema, "quantity").(int64)
	}
	q1, q2 := rmw(t1), rmw(t2)
	if q1 != 5 || q2 != 5 {
		t.Fatalf("both snapshot reads should see 5, got %d, %d", q1, q2)
	}
	if _, err := t1.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": q1 - 1}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": q2 - 1}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 4 {
		t.Fatalf("final quantity = %d; the lost update should leave 4, not 3", got)
	}
}

// TestMySQLSerializableRMWDeadlock reproduces §3.3.1: under Serializable,
// plain SELECTs take shared locks, so two concurrent RMWs deadlock on the
// S→X upgrade and one aborts.
func TestMySQLSerializableRMWDeadlock(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

	t1 := e.Begin(Serializable)
	t2 := e.Begin(Serializable)
	if _, err := t1.SelectOne("skus", storage.ByPK(pk)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.SelectOne("skus", storage.ByPK(pk)); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 1)
	go func() {
		_, err := t1.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)})
		errs <- err
	}()
	time.Sleep(30 * time.Millisecond)
	_, err2 := t2.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)})
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("second RMW = %v, want ErrDeadlock", err2)
	}
	if !t2.Done() {
		t.Fatal("deadlock victim should be rolled back")
	}
	if err := <-errs; err != nil {
		t.Fatalf("survivor update: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Deadlocks == 0 {
		t.Fatal("deadlock counter not bumped")
	}
}

// TestPostgresFirstCommitterWins reproduces the §3.1.1 PostgreSQL claim: at
// Repeatable Read, the second writer of a row aborts with a serialization
// failure.
func TestPostgresFirstCommitterWins(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

	t1 := e.Begin(RepeatableRead)
	t2 := e.Begin(RepeatableRead)
	// Pin both snapshots.
	if _, err := t1.SelectOne("skus", storage.ByPK(pk)); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.SelectOne("skus", storage.ByPK(pk)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := t2.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(3)})
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("second writer = %v, want ErrSerialization", err)
	}
	if e.Stats().SerializationErr == 0 {
		t.Fatal("serialization counter not bumped")
	}
}

// TestPostgresReadCommittedNoAbort: the same interleaving at Read Committed
// silently re-reads the newest version — no abort (and a lost update, which
// is why the applications need coordination at all).
func TestPostgresReadCommittedNoAbort(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

	t2 := e.Begin(ReadCommitted)
	if _, err := t2.SelectOne("skus", storage.ByPK(pk)); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(9)}); err != nil {
		t.Fatalf("RC update should not abort: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 9 {
		t.Fatalf("final quantity = %d, want 9", got)
	}
}

// TestMySQLGapLockBlocksInsert reproduces the §3.3.2 Payments example on
// the engine: a locking equality probe on a non-unique index gap-locks the
// interval between neighbouring keys, blocking inserts into it.
func TestMySQLGapLockBlocksInsert(t *testing.T) {
	e := newTestEngine(t, MySQL)
	mustInsert(t, e, "payments", map[string]storage.Value{"order_id": int64(9), "amount": 1.0})
	mustInsert(t, e, "payments", map[string]storage.Value{"order_id": int64(12), "amount": 1.0})

	t1 := e.Begin(RepeatableRead)
	rows, err := t1.Select("payments", storage.Eq{Col: "order_id", Val: int64(10)}, ForUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("probe returned %d rows", len(rows))
	}

	// Insert into the gap blocks until t1 finishes.
	blocked := make(chan error, 1)
	go func() {
		blocked <- e.Run(IsolationDefault, func(tx *Txn) error {
			_, err := tx.Insert("payments", map[string]storage.Value{"order_id": int64(11), "amount": 2.0})
			return err
		})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("gap insert did not block: %v", err)
	case <-time.After(60 * time.Millisecond):
	}

	// Insert outside the gap proceeds immediately.
	done := make(chan error, 1)
	go func() {
		done <- e.Run(IsolationDefault, func(tx *Txn) error {
			_, err := tx.Insert("payments", map[string]storage.Value{"order_id": int64(13), "amount": 2.0})
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("outside-gap insert failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("outside-gap insert blocked")
	}

	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("gap insert after release: %v", err)
	}
}

// TestPostgresNoGapLocks: the same probe under the Postgres dialect does not
// block the insert.
func TestPostgresNoGapLocks(t *testing.T) {
	e := newTestEngine(t, Postgres)
	mustInsert(t, e, "payments", map[string]storage.Value{"order_id": int64(9), "amount": 1.0})
	mustInsert(t, e, "payments", map[string]storage.Value{"order_id": int64(12), "amount": 1.0})

	t1 := e.Begin(RepeatableRead)
	if _, err := t1.Select("payments", storage.Eq{Col: "order_id", Val: int64(10)}, ForUpdate); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- e.Run(IsolationDefault, func(tx *Txn) error {
			_, err := tx.Insert("payments", map[string]storage.Value{"order_id": int64(11), "amount": 2.0})
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("insert blocked under postgres dialect")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPostgresSSIPredicateConflict models §3.3.2's false-sharing story under
// PG Serializable: two add-payment transactions probing adjacent order_ids
// share an SSI page and the second committer aborts; distant order_ids do
// not conflict.
func TestPostgresSSIPredicateConflict(t *testing.T) {
	run := func(oidA, oidB int64) (errA, errB error) {
		e := newTestEngine(t, Postgres)
		tA := e.Begin(Serializable)
		tB := e.Begin(Serializable)
		addPayment := func(tx *Txn, oid int64) error {
			rows, err := tx.Select("payments", storage.Eq{Col: "order_id", Val: oid})
			if err != nil {
				return err
			}
			if len(rows) != 0 {
				t.Fatalf("expected no payments for %d", oid)
			}
			_, err = tx.Insert("payments", map[string]storage.Value{"order_id": oid, "amount": 5.0})
			return err
		}
		if err := addPayment(tA, oidA); err != nil {
			t.Fatal(err)
		}
		if err := addPayment(tB, oidB); err != nil {
			t.Fatal(err)
		}
		errA = tA.Commit()
		errB = tB.Commit()
		return errA, errB
	}

	// Adjacent order ids (same SSI page): second committer must abort.
	errA, errB := run(10, 11)
	if errA != nil {
		t.Fatalf("first committer: %v", errA)
	}
	if !errors.Is(errB, ErrSerialization) {
		t.Fatalf("second committer = %v, want ErrSerialization", errB)
	}

	// Distant order ids (different pages): both commit.
	errA, errB = run(10, 1000)
	if errA != nil || errB != nil {
		t.Fatalf("distant commits failed: %v, %v", errA, errB)
	}
}

func TestRollbackRestoresRowsAndIndexes(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(5), "quantity": int64(1)})

	tx := e.Begin(IsolationDefault)
	if _, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"product_id": int64(6)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("skus", map[string]storage.Value{"product_id": int64(7), "quantity": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	err := e.Run(IsolationDefault, func(tx *Txn) error {
		if rows, _ := tx.Select("skus", storage.Eq{Col: "product_id", Val: int64(6)}); len(rows) != 0 {
			t.Fatalf("rolled-back index entry still matches: %v", rows)
		}
		if rows, _ := tx.Select("skus", storage.Eq{Col: "product_id", Val: int64(7)}); len(rows) != 0 {
			t.Fatalf("rolled-back insert visible: %v", rows)
		}
		rows, _ := tx.Select("skus", storage.Eq{Col: "product_id", Val: int64(5)})
		if len(rows) != 1 {
			t.Fatalf("original row lost: %v", rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSavepointPartialRollback(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(1)})

	tx := e.Begin(IsolationDefault)
	if _, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Savepoint("sp1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(3)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo("sp1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 2 {
		t.Fatalf("quantity = %d, want pre-savepoint-2 value 2", got)
	}
	tx2 := e.Begin(IsolationDefault)
	if err := tx2.RollbackTo("missing"); err == nil {
		t.Fatal("RollbackTo unknown savepoint succeeded")
	}
	_ = tx2.Rollback()
}

func TestCrashAndRecover(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(10)})
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(8)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// An uncommitted transaction's writes must not survive.
	inflight := e.Begin(IsolationDefault)
	if _, err := inflight.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(0)}); err != nil {
		t.Fatal(err)
	}

	e.Crash()

	// Live sessions observe connection loss.
	if _, err := inflight.SelectOne("skus", storage.ByPK(pk)); !errors.Is(err, ErrConnLost) {
		t.Fatalf("in-flight statement = %v, want ErrConnLost", err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}

	if got := readQuantity(t, e, pk); got != 8 {
		t.Fatalf("recovered quantity = %d, want 8", got)
	}
	// Secondary indexes are rebuilt.
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		rows, err := tx.Select("skus", storage.Eq{Col: "product_id", Val: int64(1)})
		if err != nil {
			return err
		}
		if len(rows) != 1 {
			t.Fatalf("index after recovery: %d rows", len(rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Auto-increment resumes past recovered keys.
	pk2 := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(2), "quantity": int64(1)})
	if pk2 <= pk {
		t.Fatalf("auto-inc after recovery = %d, want > %d", pk2, pk)
	}
}

func TestRecoverReplaysDeletes(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(1)})
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Delete("skus", storage.ByPK(pk))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		row, err := tx.SelectOne("skus", storage.ByPK(pk))
		if err != nil {
			return err
		}
		if row != nil {
			t.Fatalf("deleted row resurrected: %v", row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashDurabilityUnderLoad: every commit that was acknowledged before a
// crash must survive recovery — no more, no less. Workers blind-increment a
// counter; the engine crashes mid-workload; recovery must reproduce exactly
// the acknowledged increments.
func TestCrashDurabilityUnderLoad(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(0)})

	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Run(IsolationDefault, func(tx *Txn) error {
					_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{
						"quantity": storage.Inc(1),
					})
					return err
				})
				if err == nil {
					acked.Add(1)
					continue
				}
				if errors.Is(err, ErrConnLost) {
					return
				}
				t.Errorf("increment: %v", err)
				return
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	e.Crash()
	close(stop)
	wg.Wait()

	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != acked.Load() {
		t.Fatalf("recovered quantity %d != %d acknowledged commits", got, acked.Load())
	}
}

func TestAdvisoryLocksBlock(t *testing.T) {
	e := newTestEngine(t, Postgres)
	t1 := e.Begin(IsolationDefault)
	if err := t1.AdvisoryLock(42); err != nil {
		t.Fatal(err)
	}
	t2 := e.Begin(IsolationDefault)
	if ok, err := t2.AdvisoryTryLock(42); err != nil || ok {
		t.Fatalf("TryLock = %v, %v; want false", ok, err)
	}
	done := make(chan error, 1)
	go func() { done <- t2.AdvisoryLock(42) }()
	select {
	case err := <-done:
		t.Fatalf("advisory lock not blocking: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil { // commit releases the lock
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Rollback()
}

func TestUpdateIf(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})

	err := e.Run(IsolationDefault, func(tx *Txn) error {
		ok, err := tx.UpdateIf("skus", pk, storage.Eq{Col: "quantity", Val: int64(5)},
			map[string]storage.Value{"quantity": int64(4)})
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("guard matching update failed")
		}
		ok, err = tx.UpdateIf("skus", pk, storage.Eq{Col: "quantity", Val: int64(5)},
			map[string]storage.Value{"quantity": int64(3)})
		if err != nil {
			return err
		}
		if ok {
			t.Fatal("stale guard accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 4 {
		t.Fatalf("quantity = %d", got)
	}
}

// TestDeltaUpdates: SET col = col + n updates resolve against the current
// row and never lose increments under write-write contention.
func TestDeltaUpdates(t *testing.T) {
	e := newTestEngine(t, MySQL)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(0)})

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := e.Run(IsolationDefault, func(tx *Txn) error {
					_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{
						"quantity": storage.Inc(1),
					})
					return err
				})
				if err != nil {
					t.Errorf("delta update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := readQuantity(t, e, pk); got != 60 {
		t.Fatalf("quantity = %d, want 60 (blind increments must not lose updates)", got)
	}

	// Negative delta and type errors.
	err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": storage.Inc(-60)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 0 {
		t.Fatalf("quantity = %d after decrement", got)
	}
	err = e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Insert("payments", map[string]storage.Value{"order_id": int64(1), "amount": 1.5})
		if err != nil {
			return err
		}
		_, err = tx.Update("payments", storage.Eq{Col: "order_id", Val: int64(1)},
			map[string]storage.Value{"amount": storage.Inc(1)})
		return err
	})
	if err == nil {
		t.Fatal("delta on float column accepted")
	}
}

// TestDeltaSurvivesRecovery: the WAL logs resolved after-images, so
// increments replay correctly.
func TestDeltaSurvivesRecovery(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": storage.Inc(3)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := readQuantity(t, e, pk); got != 8 {
		t.Fatalf("recovered quantity = %d, want 8", got)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	e := newTestEngine(t, MySQL)
	tx := e.Begin(IsolationDefault)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Select("skus", storage.All{}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("select after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("rollback after commit = %v", err)
	}
}

// TestRunPanicReleasesLocks: a panic mid-transaction (an application crash
// point firing, §3.4.2) must roll back and release row locks before
// propagating, exactly as a dropped connection aborts a real transaction.
func TestRunPanicReleasesLocks(t *testing.T) {
	e := newTestEngine(t, Postgres)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(1)})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_ = e.Run(IsolationDefault, func(tx *Txn) error {
			if _, err := tx.Select("skus", storage.ByPK(pk), ForUpdate); err != nil {
				return err
			}
			panic("application server died")
		})
	}()

	// The row lock must be free and the write rolled back.
	done := make(chan error, 1)
	go func() {
		done <- e.Run(IsolationDefault, func(tx *Txn) error {
			_, err := tx.Select("skus", storage.ByPK(pk), ForUpdate)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("row lock leaked past the panic")
	}
}

func TestRunWithRetry(t *testing.T) {
	e := newTestEngine(t, Postgres)
	attempts := 0
	err := e.RunWithRetry(RepeatableRead, 3, func(tx *Txn) error {
		attempts++
		if attempts < 3 {
			// Simulate a serialization failure surfaced by a statement:
			// roll back and return the retryable error.
			_ = tx.Rollback()
			return ErrSerialization
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err = %v, attempts = %d", err, attempts)
	}

	err = e.RunWithRetry(RepeatableRead, 2, func(tx *Txn) error {
		_ = tx.Rollback()
		return ErrSerialization
	})
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("exhausted retries = %v", err)
	}
}

type captureTracer struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureTracer) Trace(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func TestTracerEvents(t *testing.T) {
	e := newTestEngine(t, Postgres)
	tr := &captureTracer{}
	e.SetTracer(tr)

	err := e.Run(IsolationDefault, func(tx *Txn) error {
		tx.SetTag("checkout")
		pk, err := tx.Insert("skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})
		if err != nil {
			return err
		}
		if _, err := tx.SelectOne("skus", storage.ByPK(pk)); err != nil {
			return err
		}
		_, err = tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": int64(4)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetTracer(nil)

	kinds := map[EventKind]int{}
	for _, ev := range tr.events {
		kinds[ev.Kind]++
		if ev.Kind == EvInsert && ev.Tag != "checkout" {
			t.Fatalf("insert event tag = %q", ev.Tag)
		}
	}
	for _, want := range []EventKind{EvBegin, EvInsert, EvRead, EvWrite, EvCommit} {
		if kinds[want] == 0 {
			t.Fatalf("no %v event recorded; kinds = %v", want, kinds)
		}
	}
	// Sequence numbers strictly increase.
	for i := 1; i < len(tr.events); i++ {
		if tr.events[i].Seq <= tr.events[i-1].Seq {
			t.Fatal("event sequence not increasing")
		}
	}
	// Write events carry the updated columns.
	for _, ev := range tr.events {
		if ev.Kind == EvWrite && len(ev.Cols) == 0 {
			t.Fatal("write event missing columns")
		}
	}
}

func TestStatsCounters(t *testing.T) {
	e := newTestEngine(t, MySQL)
	before := e.Stats()
	mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(1)})
	tx := e.Begin(IsolationDefault)
	_ = tx.Rollback()
	diff := e.Stats().Sub(before)
	if diff.Begins != 2 || diff.Commits != 1 || diff.Rollbacks != 1 {
		t.Fatalf("stats diff = %+v", diff)
	}
	if diff.Statements == 0 {
		t.Fatal("statements not counted")
	}
}

func TestIsolationAndDialectStrings(t *testing.T) {
	if ReadCommitted.String() == "" || Serializable.String() == "" || IsolationDefault.String() == "" || RepeatableRead.String() == "" {
		t.Fatal("isolation strings empty")
	}
	if MySQL.String() != "mysql" || Postgres.String() != "postgres" {
		t.Fatal("dialect strings wrong")
	}
	if MySQL.DefaultIsolation() != RepeatableRead || Postgres.DefaultIsolation() != ReadCommitted {
		t.Fatal("default isolation wrong")
	}
}

// TestConcurrentTransfersSerializable runs the classic invariant test: many
// concurrent transfers between two rows under coordination must conserve the
// total.
func TestConcurrentTransfersSerializable(t *testing.T) {
	e := newTestEngine(t, MySQL)
	a := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(500)})
	b := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(2), "quantity": int64(500)})
	schema := e.Schema("skus")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				err := e.RunWithRetry(Serializable, 50, func(tx *Txn) error {
					// Lock in a consistent order to avoid 2-key deadlocks.
					ra, err := tx.Select("skus", storage.ByPK(a), ForUpdate)
					if err != nil {
						return err
					}
					rb, err := tx.Select("skus", storage.ByPK(b), ForUpdate)
					if err != nil {
						return err
					}
					qa := ra[0].Get(schema, "quantity").(int64)
					qb := rb[0].Get(schema, "quantity").(int64)
					if _, err := tx.Update("skus", storage.ByPK(a), map[string]storage.Value{"quantity": qa - 1}); err != nil {
						return err
					}
					_, err = tx.Update("skus", storage.ByPK(b), map[string]storage.Value{"quantity": qb + 1})
					return err
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := readQuantity(t, e, a) + readQuantity(t, e, b)
	if total != 1000 {
		t.Fatalf("total = %d, want conserved 1000", total)
	}
	if got := readQuantity(t, e, a); got != 500-8*20 {
		t.Fatalf("a = %d, want %d", got, 500-8*20)
	}
}
