package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/storage"
)

// setQty commits one update of pk's quantity.
func setQty(t *testing.T, e *Engine, pk, q int64) {
	t.Helper()
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(pk), qty(q))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// selectQty reads pk's quantity in tx, failing unless exactly one row comes
// back.
func selectQty(t *testing.T, tx *Txn, pk int64) int64 {
	t.Helper()
	rows, err := tx.Select("skus", storage.ByPK(pk))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("reader gets %d rows for id %d, want 1", len(rows), pk)
	}
	return rows[0].Get(tx.e.Schema("skus"), "quantity").(int64)
}

// depth returns the length of pk's chain in table skus (0 when unlinked).
func depth(e *Engine, pk int64) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if ch, ok := e.tables["skus"].rows[pk]; ok {
		return ch.Depth()
	}
	return 0
}

// walkOldVersions counts the versions beyond each chain's newest by walking
// every chain: what the engine_mvcc_old_versions gauge must equal.
func walkOldVersions(e *Engine) int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, tb := range e.tables {
		for _, ch := range tb.rows {
			n += int64(ch.Depth() - 1)
		}
	}
	return n
}

// wantNoSnapshots fails unless the registry is empty and the watermark is
// back at the current CSN.
func wantNoSnapshots(t *testing.T, e *Engine) {
	t.Helper()
	if n, w, csn := e.SnapshotWatermark(); n != 0 || w != csn {
		t.Fatalf("%d snapshots registered, watermark %d at CSN %d; want 0 and the watermark at the CSN", n, w, csn)
	}
}

// replicate ships the leader's whole log to the follower; overlap is
// skipped by LSN.
func replicate(t *testing.T, leader, follower *Engine) {
	t.Helper()
	if _, err := follower.ApplyReplicated(leader.WALBytes()); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerReaderKeepsSnapshotAcrossApply: a repeatable-read reader on a
// follower keeps reading the row as of its snapshot after the follower
// applies a later update and a delete of it. Replicated apply prepends a
// version instead of replacing the row's chain or unlinking the row, and the
// follower's own read-only commits do not run its commit clock past the
// replicated LSNs.
func TestFollowerReaderKeepsSnapshotAcrossApply(t *testing.T) {
	leader, follower := newTestEngine(t, MySQL), newTestEngine(t, MySQL)
	pk := mustInsert(t, leader, "skus", map[string]storage.Value{"product_id": int64(7), "quantity": int64(1)})
	replicate(t, leader, follower)
	if got := countRows(t, follower); len(got) != 1 {
		t.Fatalf("follower holds %v, want one row", got)
	}

	reader := follower.Begin(RepeatableRead)
	defer reader.Rollback()
	if q := selectQty(t, reader, pk); q != 1 {
		t.Fatalf("reader sees quantity %d, want 1", q)
	}
	// A rolled-back leader transaction draws an ID, so the update below is
	// not written under the reader's ID (TestFollowerReaderIDCollision).
	_ = leader.Begin(IsolationDefault).Rollback()
	setQty(t, leader, pk, 2)
	if err := leader.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Delete("skus", storage.ByPK(pk))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower)

	if q := selectQty(t, reader, pk); q != 1 {
		t.Fatalf("reader sees quantity %d after the apply, want 1", q)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, follower); len(got) != 0 {
		t.Fatalf("a new reader sees %v, want the row deleted", got)
	}
}

// TestFollowerReaderIDCollision: a follower hands out local transaction IDs
// that a leader transaction replicated later may also carry. A reader that
// shares its ID with a replicated writer must not take that committed
// version for its own write.
func TestFollowerReaderIDCollision(t *testing.T) {
	leader, follower := newTestEngine(t, MySQL), newTestEngine(t, MySQL)
	pk := mustInsert(t, leader, "skus", map[string]storage.Value{"product_id": int64(7), "quantity": int64(1)})
	replicate(t, leader, follower)

	reader := follower.Begin(RepeatableRead)
	defer reader.Rollback()
	if q := selectQty(t, reader, pk); q != 1 {
		t.Fatalf("reader sees quantity %d, want 1", q)
	}
	update := leader.Begin(IsolationDefault)
	if update.ID() != reader.ID() {
		t.Fatalf("setup: leader writer has ID %d, follower reader %d; the test needs them equal", update.ID(), reader.ID())
	}
	if _, err := update.Update("skus", storage.ByPK(pk), qty(2)); err != nil {
		t.Fatal(err)
	}
	if err := update.Commit(); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower)

	if q := selectQty(t, reader, pk); q != 1 {
		t.Fatalf("reader sees quantity %d, want 1", q)
	}
}

// TestPinnedReaderBoundsPruning: a repeatable-read reader pinned before
// 10,000 commits to one row still reads its version, which every one of
// those commits had to keep; the first commit after the reader ends prunes
// the chain back.
func TestPinnedReaderBoundsPruning(t *testing.T) {
	const commits = 10000
	e := newTestEngine(t, MySQL)
	reg := obs.NewRegistry()
	e.WireObs(reg)
	pk := mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(0)})

	reader := e.Begin(RepeatableRead)
	if q := selectQty(t, reader, pk); q != 0 {
		t.Fatalf("reader sees quantity %d, want 0", q)
	}
	for i := int64(1); i <= commits; i++ {
		setQty(t, e, pk, i)
	}
	if q := selectQty(t, reader, pk); q != 0 {
		t.Fatalf("reader pinned before %d commits sees quantity %d, want 0", commits, q)
	}
	if d := depth(e, pk); d != commits+1 {
		t.Fatalf("chain depth %d under the pinned reader, want %d", d, commits+1)
	}
	if lag := reg.Gauge("engine_snapshot_watermark_lag").Value(); lag != commits {
		t.Fatalf("engine_snapshot_watermark_lag = %d, want %d", lag, commits)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	setQty(t, e, pk, commits+1)
	if d := depth(e, pk); d > 2 {
		t.Fatalf("chain depth %d after the reader ended, want at most 2", d)
	}
	if got, want := reg.Gauge("engine_mvcc_old_versions").Value(), walkOldVersions(e); got != want {
		t.Fatalf("engine_mvcc_old_versions = %d, chains hold %d", got, want)
	}
	if lag := reg.Gauge("engine_snapshot_watermark_lag").Value(); lag != 0 {
		t.Fatalf("engine_snapshot_watermark_lag = %d with no reader, want 0", lag)
	}
}

// TestChurnKeepsChainsShort: 100,000 updates over 2 rows with no concurrent
// reader leave at most one old version per row.
func TestChurnKeepsChainsShort(t *testing.T) {
	const updates = 100000
	e := newTestEngine(t, MySQL)
	reg := obs.NewRegistry()
	e.WireObs(reg)
	pks := []int64{
		mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(0)}),
		mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(2), "quantity": int64(0)}),
	}
	for i := 0; i < updates; i++ {
		setQty(t, e, pks[i%2], int64(i))
	}
	got := reg.Gauge("engine_mvcc_old_versions").Value()
	if got > int64(len(pks)) {
		t.Fatalf("engine_mvcc_old_versions = %d after %d updates, want at most %d", got, updates, len(pks))
	}
	if want := walkOldVersions(e); got != want {
		t.Fatalf("engine_mvcc_old_versions = %d, chains hold %d", got, want)
	}
	// A delete no snapshot can see past unlinks the row.
	if err := e.Run(IsolationDefault, func(tx *Txn) error {
		_, err := tx.Delete("skus", storage.All{})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, pk := range pks {
		if d := depth(e, pk); d != 0 {
			t.Fatalf("deleted row %d keeps a chain of %d versions", pk, d)
		}
	}
	if got := reg.Gauge("engine_mvcc_old_versions").Value(); got != 0 {
		t.Fatalf("engine_mvcc_old_versions = %d with every row deleted, want 0", got)
	}
}

// TestOldVersionsGaugeMatchesChains drives random inserts, updates (some
// moving the indexed column), deletes, savepoint rollbacks and rollbacks
// against readers that come and go, and checks after every step that the
// gauge equals a walk of the chains and that every index entry points at a
// row some version carries.
func TestOldVersionsGaugeMatchesChains(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := newTestEngine(t, MySQL)
			reg := obs.NewRegistry()
			e.WireObs(reg)
			// Each reader re-reads the table before it ends and must see
			// what its first read saw.
			type reader struct {
				tx   *Txn
				seen string
			}
			readAll := func(tx *Txn) string {
				rows, err := tx.Select("skus", storage.All{})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(rows)
			}
			var readers []reader
			for step := 0; step < 300; step++ {
				switch rng.Intn(6) {
				case 0:
					r := e.Begin(RepeatableRead)
					readers = append(readers, reader{r, readAll(r)})
				case 1:
					if len(readers) > 0 {
						i := rng.Intn(len(readers))
						if got := readAll(readers[i].tx); got != readers[i].seen {
							t.Fatalf("step %d: reader sees %s, its snapshot held %s", step, got, readers[i].seen)
						}
						_ = readers[i].tx.Commit()
						readers = append(readers[:i], readers[i+1:]...)
					}
				case 2:
					if rng.Intn(8) != 0 {
						continue
					}
					// A writer caught by a crash rolls back onto chains
					// that died with it, and recovery rebuilds the rest.
					for _, r := range readers {
						_ = r.tx.Commit()
					}
					readers = nil
					w := e.Begin(IsolationDefault)
					if _, err := w.Update("skus", storage.All{}, qty(int64(step))); err != nil {
						t.Fatal(err)
					}
					e.Crash()
					if _, err := w.Select("skus", storage.All{}); !errors.Is(err, ErrConnLost) {
						t.Fatalf("statement after Crash = %v, want ErrConnLost", err)
					}
					if err := e.Recover(); err != nil {
						t.Fatal(err)
					}
				default:
					tx := e.Begin(IsolationDefault)
					pk := int64(rng.Intn(6) + 1)
					var err error
					switch rng.Intn(4) {
					case 0:
						_, err = tx.Insert("skus", map[string]storage.Value{"id": pk, "product_id": int64(rng.Intn(3)), "quantity": int64(0)})
						if errors.Is(err, ErrDuplicateKey) {
							err = nil
						}
					case 1:
						_, err = tx.Delete("skus", storage.ByPK(pk))
					default:
						if err = tx.Savepoint("s"); err == nil {
							_, err = tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"product_id": int64(rng.Intn(3))})
						}
						if err == nil && rng.Intn(3) == 0 {
							err = tx.RollbackTo("s")
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					if rng.Intn(5) == 0 {
						err = tx.Rollback()
					} else {
						err = tx.Commit()
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if got, want := reg.Gauge("engine_mvcc_old_versions").Value(), walkOldVersions(e); got != want {
					t.Fatalf("step %d: engine_mvcc_old_versions = %d, chains hold %d", step, got, want)
				}
				checkIndexCarried(t, e)
			}
			for _, r := range readers {
				_ = r.tx.Commit()
			}
			wantNoSnapshots(t, e)
		})
	}
}

// checkIndexCarried fails if a skus index entry names a row none of whose
// versions carries the key, or a live row's current key is missing.
func checkIndexCarried(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	tb := e.tables["skus"]
	ix := tb.indexes["product_id"]
	for _, key := range ix.Keys() {
		for _, pk := range ix.Lookup(key) {
			ch, ok := tb.rows[pk]
			carried := false
			for v := ch.Head(); ok && v != nil; v = v.Prev {
				carried = carried || (v.Row != nil && storage.Equal(v.Row.Get(tb.schema, "product_id"), key))
			}
			if !carried {
				t.Fatalf("index entry %v → %d carried by no version", key, pk)
			}
		}
	}
	for pk, ch := range tb.rows {
		if v := ch.LatestCommitted(); v != nil && !v.Deleted {
			key := v.Row.Get(tb.schema, "product_id")
			found := false
			for _, p := range ix.Lookup(key) {
				found = found || p == pk
			}
			if !found {
				t.Fatalf("row %d's key %v is not indexed", pk, key)
			}
		}
	}
}

// TestSnapshotRegistryEmptiesOnEveryEnd ends a transaction that holds a
// snapshot in each way one can end, and checks each time that the registry
// is empty again and the watermark is back at the current CSN.
func TestSnapshotRegistryEmptiesOnEveryEnd(t *testing.T) {
	seed := func(e *Engine) int64 {
		return mustInsert(t, e, "skus", map[string]storage.Value{"product_id": int64(1), "quantity": int64(5)})
	}
	for _, tc := range []struct {
		name    string
		dialect DialectKind
		end     func(t *testing.T, e *Engine, pk int64)
	}{
		{"commit", MySQL, func(t *testing.T, e *Engine, pk int64) {
			tx := e.Begin(IsolationDefault)
			selectQty(t, tx, pk)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"rollback", MySQL, func(t *testing.T, e *Engine, pk int64) {
			tx := e.Begin(ReadCommitted)
			selectQty(t, tx, pk)
			if _, err := tx.Update("skus", storage.ByPK(pk), qty(1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
		{"deadlock victim", MySQL, func(t *testing.T, e *Engine, pk int64) {
			t1, t2 := e.Begin(Serializable), e.Begin(Serializable)
			selectQty(t, t1, pk)
			selectQty(t, t2, pk)
			errs := make(chan error, 1)
			go func() {
				_, err := t1.Update("skus", storage.ByPK(pk), qty(4))
				errs <- err
			}()
			time.Sleep(30 * time.Millisecond)
			if _, err := t2.Update("skus", storage.ByPK(pk), qty(4)); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("second upgrade = %v, want ErrDeadlock", err)
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"OCC conflict", MySQL, func(t *testing.T, e *Engine, pk int64) {
			t1, t2 := e.BeginMode(ModeOCC, IsolationDefault), e.BeginMode(ModeOCC, IsolationDefault)
			for _, tx := range []*Txn{t1, t2} {
				if _, err := tx.Update("skus", storage.ByPK(pk), map[string]storage.Value{"quantity": storage.Delta{N: -1}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := t2.Commit(); !errors.Is(err, ErrOCCConflict) {
				t.Fatalf("second OCC commit = %v, want ErrOCCConflict", err)
			}
		}},
		{"first-committer-wins failure", Postgres, func(t *testing.T, e *Engine, pk int64) {
			tx := e.Begin(RepeatableRead)
			selectQty(t, tx, pk)
			setQty(t, e, pk, 9)
			if _, err := tx.Update("skus", storage.ByPK(pk), qty(1)); !errors.Is(err, ErrSerialization) {
				t.Fatalf("update over a newer commit = %v, want ErrSerialization", err)
			}
		}},
		{"statement after Crash", MySQL, func(t *testing.T, e *Engine, pk int64) {
			tx := e.Begin(IsolationDefault)
			selectQty(t, tx, pk)
			e.Crash()
			if _, err := tx.Select("skus", storage.ByPK(pk)); !errors.Is(err, ErrConnLost) {
				t.Fatalf("statement after Crash = %v, want ErrConnLost", err)
			}
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, tc.dialect)
			pk := seed(e)
			held := e.Begin(IsolationDefault)
			selectQty(t, held, pk)
			if n, _, _ := e.SnapshotWatermark(); n != 1 {
				t.Fatalf("%d snapshots registered under one open reader, want 1", n)
			}
			if err := held.Rollback(); err != nil {
				t.Fatal(err)
			}
			tc.end(t, e, pk)
			wantNoSnapshots(t, e)
		})
	}
}
