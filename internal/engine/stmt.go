package engine

import (
	"fmt"
	"sort"

	"adhoctx/internal/lockmgr"
	"adhoctx/internal/mvcc"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// SelectOpt modifies SELECT locking behaviour.
type SelectOpt int

// Select options.
const (
	// ForUpdate takes exclusive row locks (SELECT ... FOR UPDATE).
	ForUpdate SelectOpt = iota + 1
	// ForShare takes shared row locks (SELECT ... FOR SHARE / LOCK IN
	// SHARE MODE).
	ForShare
)

// Select returns the rows of table matching pred, sorted by primary key.
// Plain selects are snapshot reads; ForUpdate/ForShare are locking current
// reads. Under the MySQL dialect at Serializable, plain selects silently
// become shared locking reads — the behaviour the paper's RMW deadlock
// analysis depends on (§3.3.1).
func (t *Txn) Select(tableName string, pred storage.Pred, opts ...SelectOpt) ([]storage.Row, error) {
	if err := t.startStatement(); err != nil {
		return nil, err
	}
	defer t.e.obsStmtDone(t.e.obsNow())
	if t.mode == ModeOCC {
		// OCC ignores locking options: FOR UPDATE/FOR SHARE degrade to
		// snapshot reads, and commit-time validation supplies the
		// guarantee the lock would have.
		return t.occSelect(tableName, pred)
	}
	mode, locking := selectLockMode(opts)
	if !locking && t.e.cfg.Dialect == MySQL && t.iso == Serializable {
		mode, locking = lockmgr.Shared, true
	}

	if locking {
		return t.lockingRead(tableName, pred, mode)
	}
	return t.snapshotRead(tableName, pred)
}

func selectLockMode(opts []SelectOpt) (lockmgr.Mode, bool) {
	for _, o := range opts {
		switch o {
		case ForUpdate:
			return lockmgr.Exclusive, true
		case ForShare:
			return lockmgr.Shared, true
		}
	}
	return lockmgr.Shared, false
}

// SelectOne returns the single row matching pred, or nil when none match.
func (t *Txn) SelectOne(tableName string, pred storage.Pred, opts ...SelectOpt) (storage.Row, error) {
	rows, err := t.Select(tableName, pred, opts...)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return rows[0], nil
}

// snapshotRead is a non-locking MVCC read. It holds the store latch in
// shared mode: chains are only mutated under the exclusive mode, so
// concurrent snapshot readers proceed in parallel.
func (t *Txn) snapshotRead(tableName string, pred storage.Pred) ([]storage.Row, error) {
	snap := t.snapshot()
	e := t.e
	e.mu.RLock()
	tb, err := e.table(tableName)
	if err != nil {
		e.mu.RUnlock()
		return nil, err
	}
	pks, probe := t.candidates(tb, pred)
	t.trackPredicateRead(tb, pred, probe)
	var out []storage.Row
	for _, pk := range pks {
		ch, ok := tb.rows[pk]
		if !ok {
			continue
		}
		row := ch.Visible(snap)
		if row == nil || !pred.Match(tb.schema, row) {
			continue
		}
		out = append(out, row.Clone())
		t.trackRowRead(tb, pk)
		e.emit(t, EvRead, tableName, pk, nil)
	}
	e.mu.RUnlock()
	return out, nil
}

// lockingRead locks matching rows and reads their latest committed versions
// (a "current read"). At PostgreSQL Repeatable Read and above, locking a row
// whose head moved past the snapshot raises ErrSerialization.
func (t *Txn) lockingRead(tableName string, pred storage.Pred, mode lockmgr.Mode) ([]storage.Row, error) {
	snap := t.snapshot() // establish snapshot time for FCW checks
	e := t.e
	e.mu.Lock()
	tb, err := e.table(tableName)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	pks, probe := t.candidates(tb, pred)
	t.trackPredicateRead(tb, pred, probe)
	if t.usesGapLocks() {
		t.acquireGapLocks(tb, pred, probe)
	}
	e.mu.Unlock()

	var out []storage.Row
	err = t.lockCurrent(tb, pks, pred, mode, snap, func(pk int64, cur storage.Row) error {
		out = append(out, cur.Clone())
		t.trackRowRead(tb, pk)
		e.emit(t, EvRead, tableName, pk, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lockCurrent is the current-read loop under every locking read and every
// 2PL write: for each candidate in turn, wait for the row lock, then under
// the store latch re-read the row — it may have changed or gone while the
// lock was awaited — apply first-committer-wins where the isolation level
// asks for it, re-check pred against the current version, and hand the
// survivors to visit with the latch still held. A lock failure, a
// serialization failure or visit's error ends the loop.
func (t *Txn) lockCurrent(tb *table, pks []int64, pred storage.Pred, mode lockmgr.Mode, snap mvcc.Snapshot,
	visit func(pk int64, cur storage.Row) error) error {
	e := t.e
	for _, pk := range pks {
		if err := t.lockRow(tb.schema.Table, pk, mode); err != nil {
			return err
		}
		e.mu.Lock()
		ch, cur := t.currentRow(tb, pk)
		conflict := cur != nil && t.usesFCW() && ch.ConflictsWith(snap)
		var err error
		if cur != nil && !conflict && pred.Match(tb.schema, cur) {
			err = visit(pk, cur)
		}
		e.mu.Unlock()
		if conflict {
			return t.failSerialization()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// currentVersion resolves the version a current read sees: the transaction's
// own uncommitted head, or the latest committed version.
func (t *Txn) currentVersion(ch *mvcc.Chain) *mvcc.Version {
	if h := ch.Head(); h != nil && h.CSN == 0 && h.TxnID == t.id {
		return h
	}
	return ch.LatestCommitted()
}

// currentRow resolves what a current read by t finds at pk: the row's chain
// and its current image, nil when the row does not exist (never inserted, or
// its current version is a tombstone). Caller holds e.mu.
func (t *Txn) currentRow(tb *table, pk int64) (*mvcc.Chain, storage.Row) {
	ch, ok := tb.rows[pk]
	if !ok {
		return nil, nil
	}
	if cv := t.currentVersion(ch); cv != nil && !cv.Deleted {
		return ch, cv.Row
	}
	return ch, nil
}

// lockRow blocks until the row lock is granted (see lockErr for failures).
func (t *Txn) lockRow(tableName string, pk int64, mode lockmgr.Mode) error {
	return t.lockErr(t.e.lm.Acquire(t.owner, rowKey{tableName, pk}, mode))
}

// candidates resolves the access path for pred: primary key point lookup,
// secondary index probe, index range scan, or full scan. It returns the
// candidate primary keys (sorted) and, if an index probe was used, the
// probed column and value. Caller holds e.mu.
func (t *Txn) candidates(tb *table, pred storage.Pred) (pks []int64, probe *indexProbe) {
	if v, ok := storage.EqCond(pred, storage.PKColumn); ok {
		if pk, isInt := v.(int64); isInt {
			return []int64{pk}, nil
		}
		return nil, nil
	}
	for col, ix := range tb.indexes {
		if v, ok := storage.EqCond(pred, col); ok {
			return ix.Lookup(v), &indexProbe{col: col, eq: v}
		}
	}
	if r, ok := pred.(storage.Range); ok {
		if ix, has := tb.indexes[r.Col]; has {
			return ix.ScanRange(r.Lo, r.Hi, r.IncLo, r.IncHi), &indexProbe{col: r.Col, lo: r.Lo, hi: r.Hi}
		}
	}
	pks = make([]int64, 0, len(tb.rows))
	for pk := range tb.rows {
		pks = append(pks, pk)
	}
	sort.Slice(pks, func(i, j int) bool { return pks[i] < pks[j] })
	return pks, nil
}

// indexProbe describes the index access used by a statement.
type indexProbe struct {
	col    string
	eq     storage.Value // equality probe value (nil for range)
	lo, hi storage.Value
}

// acquireGapLocks takes the InnoDB-style gap locks a locking scan needs:
// the open interval bracketing the probed key (or range). Never blocks —
// gap locks are mutually compatible. Caller holds e.mu.
func (t *Txn) acquireGapLocks(tb *table, pred storage.Pred, probe *indexProbe) {
	if probe == nil {
		return
	}
	ix := tb.indexes[probe.col]
	space := lockmgr.GapSpace{Table: tb.schema.Table, Col: probe.col}
	if probe.eq != nil {
		below, above := ix.Neighbors(probe.eq)
		t.e.lm.AcquireGap(t.owner, space, below, above)
		return
	}
	var below, above storage.Value
	if probe.lo != nil {
		below, _ = ix.Neighbors(probe.lo)
	}
	if probe.hi != nil {
		_, above = ix.Neighbors(probe.hi)
	}
	t.e.lm.AcquireGap(t.owner, space, below, above)
}

// trackPredicateRead records SSI read pages for the probed predicate —
// including the empty-result case, which is what makes "check there is no
// payment yet, then insert one" conflict under Serializable (§3.3.2).
// Caller holds e.mu.
func (t *Txn) trackPredicateRead(tb *table, pred storage.Pred, probe *indexProbe) {
	if !t.usesSSI() {
		return
	}
	if v, ok := storage.EqCond(pred, storage.PKColumn); ok {
		if pk, isInt := v.(int64); isInt {
			t.noteReadPage(pageKey{tb.schema.Table, storage.PKColumn, pageOf(pk)})
			return
		}
	}
	if probe != nil {
		if probe.eq != nil {
			t.noteReadPage(pageKey{tb.schema.Table, probe.col, pageOf(probe.eq)})
			return
		}
		lo, hi := int64(0), int64(0)
		if probe.lo != nil {
			lo = pageOf(probe.lo)
		}
		if probe.hi != nil {
			hi = pageOf(probe.hi)
		} else {
			hi = lo + 4 // open ranges track a few pages past the bound
		}
		for p := lo; p <= hi; p++ {
			t.noteReadPage(pageKey{tb.schema.Table, probe.col, p})
		}
		return
	}
	// Full scan: relation-granularity SIREAD.
	t.noteReadPage(pageKey{tb.schema.Table, "*", 0})
}

// trackRowRead records the SSI page of one row actually read.
func (t *Txn) trackRowRead(tb *table, pk int64) {
	if !t.usesSSI() {
		return
	}
	t.noteReadPage(pageKey{tb.schema.Table, storage.PKColumn, pageOf(pk)})
}

// trackRowWrite records SSI write pages for a written row (pk page plus
// affected secondary-index value pages).
func (t *Txn) trackRowWrite(tb *table, pk int64, oldRow, newRow storage.Row) {
	if t.e.cfg.Dialect != Postgres {
		return
	}
	t.noteWritePage(pageKey{tb.schema.Table, storage.PKColumn, pageOf(pk)})
	t.noteWritePage(pageKey{tb.schema.Table, "*", 0})
	for col := range tb.indexes {
		if oldRow != nil {
			t.noteWritePage(pageKey{tb.schema.Table, col, pageOf(oldRow.Get(tb.schema, col))})
		}
		if newRow != nil {
			t.noteWritePage(pageKey{tb.schema.Table, col, pageOf(newRow.Get(tb.schema, col))})
		}
	}
}

// writeTable resolves the table a write statement names and checks that it
// has every column of vals. Caller holds e.mu.
func (e *Engine) writeTable(name string, vals map[string]storage.Value) (*table, error) {
	tb, err := e.table(name)
	if err != nil {
		return nil, err
	}
	for col := range vals {
		if !tb.schema.HasColumn(col) {
			return nil, fmt.Errorf("engine: table %q has no column %q", name, col)
		}
	}
	return tb, nil
}

// newRow builds the row an INSERT of vals adds to tb: it takes the explicit
// "id" or the next auto-increment value as primary key — reserved for good
// either way, so an insert that later fails or aborts leaves a gap, as real
// engines do — refuses an explicit key that taken reports in use, and checks
// the row against the schema. Caller holds e.mu exclusively.
func newRow(tb *table, vals map[string]storage.Value, taken func(pk int64) bool) (storage.Row, error) {
	schema := tb.schema
	var pk int64
	if v, given := vals[storage.PKColumn]; given {
		p, isInt := v.(int64)
		if !isInt {
			return nil, fmt.Errorf("engine: explicit id must be int64, got %T", v)
		}
		if taken(p) {
			return nil, fmt.Errorf("%w: %s id=%d", ErrDuplicateKey, schema.Table, p)
		}
		pk = p
		if pk > tb.autoInc {
			tb.autoInc = pk
		}
	} else {
		tb.autoInc++
		pk = tb.autoInc
	}
	row := make(storage.Row, len(schema.Columns))
	row[0] = pk
	for i := 1; i < len(schema.Columns); i++ {
		if v, ok := vals[schema.Columns[i].Name]; ok {
			row[i] = v
		}
	}
	return row, schema.CheckRow(row)
}

// rowAfter is the image a write statement leaves of cur: nil for a DELETE,
// otherwise a copy of cur with set applied (deltas added) and checked against
// the schema.
func rowAfter(schema *storage.Schema, cur storage.Row, set map[string]storage.Value, del bool) (storage.Row, error) {
	if del {
		return nil, nil
	}
	row := cur.Clone()
	for col, v := range set {
		if d, isDelta := v.(storage.Delta); isDelta {
			n, isInt := row.Get(schema, col).(int64)
			if !isInt {
				return nil, fmt.Errorf("engine: delta update on non-integer column %s.%s", schema.Table, col)
			}
			v = n + d.N
		}
		row.Set(schema, col, v)
	}
	return row, schema.CheckRow(row)
}

// emitWrite traces one UPDATE or DELETE of a row.
func (e *Engine) emitWrite(t *Txn, tableName string, pk int64, set map[string]storage.Value, del bool) {
	if del {
		e.emit(t, EvDelete, tableName, pk, nil)
	} else {
		e.emit(t, EvWrite, tableName, pk, colsOf(set))
	}
}

// install is the engine's one way to write a row: it puts an uncommitted
// version of pk — row, or a tombstone when row is nil — on the row's chain,
// adds the index entries the new image needs, and records the write in the
// transaction's undo list, its redo record and its SSI write pages. old is
// the image being replaced, nil when the row does not currently exist. A
// 2PL statement installs as it executes; an OCC commit installs its
// validated buffer; from here on the two are the same transaction —
// commitApply, rollback and recovery do not know which it was. install takes
// ownership of row, emits no event, and needs e.mu held exclusively plus
// whatever makes t the row's only writer (its X lock).
func (t *Txn) install(tb *table, pk int64, old, row storage.Row) {
	ch, existed := tb.rows[pk]
	if !existed {
		ch = &mvcc.Chain{}
		tb.rows[pk] = ch
	}
	if ch.Prepend(row, row == nil, t.id).Prev != nil {
		t.e.countOldVersions(1)
	}
	u := undoEntry{t: tb, pk: pk, chain: ch}
	op := wal.Op{Kind: wal.OpUpdate, Table: tb.schema.Table, PK: pk}
	switch {
	case row == nil:
		op.Kind, u.delRow = wal.OpDelete, old
	case old == nil:
		op.Kind = wal.OpInsert
		// An optimistic insert reserved its key when it was buffered, but a
		// recovery in between rebuilds the counter from the log alone.
		if pk > tb.autoInc {
			tb.autoInc = pk
		}
	}
	if row != nil {
		op.Row = row.Clone()
		for col, ix := range tb.indexes {
			key := row.Get(tb.schema, col)
			if old == nil || !storage.Equal(old.Get(tb.schema, col), key) {
				ix.Add(key, pk)
				u.addedIdx = append(u.addedIdx, idxEntry{col: col, key: key})
			}
		}
	}
	t.undo = append(t.undo, u)
	t.writes = append(t.writes, op)
	t.trackRowWrite(tb, pk, old, row)
}

// Insert adds a row. vals maps column names to values; "id" may be supplied
// explicitly (recovery, fixtures) or is auto-assigned. Returns the primary
// key. Under the MySQL dialect at Repeatable Read and above, the insert
// first waits out conflicting gap locks (insert intention).
func (t *Txn) Insert(tableName string, vals map[string]storage.Value) (int64, error) {
	if err := t.startStatement(); err != nil {
		return 0, err
	}
	defer t.e.obsStmtDone(t.e.obsNow())
	if t.mode == ModeOCC {
		return t.occInsert(tableName, vals)
	}
	t.snapshot() // pin the snapshot before first write
	e := t.e

	e.mu.Lock()
	// Validate columns before any waiting.
	tb, err := e.writeTable(tableName, vals)
	if err != nil {
		e.mu.Unlock()
		return 0, err
	}
	type gapCheck struct {
		space lockmgr.GapSpace
		key   storage.Value
	}
	var checks []gapCheck
	if t.usesGapLocks() {
		for col := range tb.indexes {
			if v, ok := vals[col]; ok {
				checks = append(checks, gapCheck{lockmgr.GapSpace{Table: tableName, Col: col}, v})
			}
		}
	}
	e.mu.Unlock()

	// Insert-intention waits happen outside the store latch.
	for _, c := range checks {
		if err := t.lockErr(e.lm.InsertIntent(t.owner, c.space, c.key)); err != nil {
			return 0, err
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	taken := func(pk int64) bool {
		_, cur := t.currentRow(tb, pk)
		return cur != nil
	}
	row, err := newRow(tb, vals, taken)
	if err != nil {
		return 0, err
	}
	pk := row[0].(int64)

	// Take the row lock before publishing: the key is fresh, so this never
	// blocks, and it keeps concurrent current reads from seeing the row
	// vanish on rollback. The latched variant skips the scheduling point —
	// parking here would hold e.mu across the park and deadlock any other
	// task entering the store.
	if !e.lm.TryAcquireLatched(t.owner, rowKey{tableName, pk}, lockmgr.Exclusive) {
		// Only possible for explicit-pk races; fall back to a wait.
		e.mu.Unlock()
		err := t.lockRow(tableName, pk, lockmgr.Exclusive)
		e.mu.Lock()
		if err != nil {
			return 0, err
		}
		if taken(pk) {
			return 0, fmt.Errorf("%w: %s id=%d", ErrDuplicateKey, tableName, pk)
		}
	}

	t.install(tb, pk, nil, row)
	e.emit(t, EvInsert, tableName, pk, colsOf(vals))
	return pk, nil
}

// Update applies set to every row matching pred and returns the number of
// rows changed. Updates are current reads: they lock target rows and apply
// against the latest committed version. Under PostgreSQL Repeatable Read
// and above, updating a row committed after the snapshot raises
// ErrSerialization (first-committer-wins).
func (t *Txn) Update(tableName string, pred storage.Pred, set map[string]storage.Value) (int, error) {
	return t.writeRows(tableName, pred, set, false)
}

// Delete removes every row matching pred and returns the count.
func (t *Txn) Delete(tableName string, pred storage.Pred) (int, error) {
	return t.writeRows(tableName, pred, nil, true)
}

func (t *Txn) writeRows(tableName string, pred storage.Pred, set map[string]storage.Value, del bool) (int, error) {
	if err := t.startStatement(); err != nil {
		return 0, err
	}
	defer t.e.obsStmtDone(t.e.obsNow())
	if t.mode == ModeOCC {
		return t.occWriteRows(tableName, pred, set, del)
	}
	snap := t.snapshot()
	e := t.e

	e.mu.Lock()
	tb, err := e.writeTable(tableName, set)
	if err != nil {
		e.mu.Unlock()
		return 0, err
	}
	pks, probe := t.candidates(tb, pred)
	if t.usesGapLocks() {
		t.acquireGapLocks(tb, pred, probe)
	}
	e.mu.Unlock()

	changed := 0
	err = t.lockCurrent(tb, pks, pred, lockmgr.Exclusive, snap, func(pk int64, cur storage.Row) error {
		row, err := rowAfter(tb.schema, cur, set, del)
		if err != nil {
			return err
		}
		t.install(tb, pk, cur, row)
		e.emitWrite(t, tableName, pk, set, del)
		changed++
		return nil
	})
	return changed, err
}

// UpdateIf is the conditional single-row update every optimistic ad hoc
// transaction compiles to: UPDATE ... SET set WHERE id=pk AND guard. It
// returns true when exactly that row matched and was updated — the
// atomic validate-and-commit primitive (§3.2.2, Figure 1c).
func (t *Txn) UpdateIf(tableName string, pk int64, guard storage.Pred, set map[string]storage.Value) (bool, error) {
	pred := storage.And{storage.ByPK(pk), guard}
	n, err := t.Update(tableName, pred, set)
	return n > 0, err
}
