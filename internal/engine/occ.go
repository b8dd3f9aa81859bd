package engine

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"adhoctx/internal/lockmgr"
	"adhoctx/internal/mvcc"
	"adhoctx/internal/occkit/bocc"
	"adhoctx/internal/sched"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// Engine-internal crash points on the OCC commit path (armed via
// Config.Crash). Validate fires before any mutation; Commit fires after the
// writes are visible but before the WAL append — the visible-not-durable
// window DESIGN.md §10 argues is safe because the commit was never
// acknowledged.
const (
	CrashPointOCCValidate = "engine/occ-validate"
	CrashPointOCCCommit   = "engine/occ-commit"
)

// occState is a ModeOCC transaction's private state: the read set that
// commit-time backward validation checks, and the local write buffer that
// replaces the 2PL undo log. Nothing here touches shared structures until
// commit.
type occState struct {
	reads bocc.ReadSet
	buf   map[rowKey]*occWrite
	order []rowKey // deterministic apply order (first-buffer order)
}

// occWrite is one buffered row image: the new row, or a tombstone.
type occWrite struct {
	row     storage.Row
	deleted bool
}

func (s *occState) put(k rowKey, w *occWrite) {
	if s.buf == nil {
		s.buf = make(map[rowKey]*occWrite)
	}
	if _, ok := s.buf[k]; !ok {
		s.order = append(s.order, k)
	}
	s.buf[k] = w
}

// occTrackPred records the predicate-level read: a primary-key point read
// tracks the single row (present or absent — phantom inserts must
// conflict); anything wider tracks the whole table conservatively.
func (t *Txn) occTrackPred(tableName string, pred storage.Pred) {
	if v, ok := storage.EqCond(pred, storage.PKColumn); ok {
		if pk, isInt := v.(int64); isInt {
			t.occ.reads.AddRow(tableName, pk)
			return
		}
	}
	t.occ.reads.AddTable(tableName)
}

// occVisible resolves the row this transaction sees at pk: its own buffered
// write, else the snapshot-visible version. Caller holds e.mu (shared
// suffices).
func (t *Txn) occVisible(tb *table, pk int64, snap mvcc.Snapshot) storage.Row {
	if w, ok := t.occ.buf[rowKey{tb.schema.Table, pk}]; ok {
		if w.deleted {
			return nil
		}
		return w.row
	}
	if ch, ok := tb.rows[pk]; ok {
		return ch.Visible(snap)
	}
	return nil
}

// occCandidates unions the access path's candidate pks with this
// transaction's buffered pks for the table (buffered inserts are invisible
// to the shared indexes until commit). Caller holds e.mu (shared).
func (t *Txn) occCandidates(tb *table, pks []int64) []int64 {
	if len(t.occ.buf) == 0 {
		return pks
	}
	seen := make(map[int64]bool, len(pks))
	for _, pk := range pks {
		seen[pk] = true
	}
	var extra []int64
	for k := range t.occ.buf {
		if k.table == tb.schema.Table && !seen[k.pk] {
			extra = append(extra, k.pk)
		}
	}
	if len(extra) == 0 {
		return pks
	}
	merged := make([]int64, 0, len(pks)+len(extra))
	merged = append(merged, pks...)
	merged = append(merged, extra...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	return merged
}

// occSelect is the OCC read path: a begin-timestamp MVCC snapshot read under
// the store latch's shared mode, overlaid with the transaction's own write
// buffer. It never calls the lock manager.
func (t *Txn) occSelect(tableName string, pred storage.Pred) ([]storage.Row, error) {
	snap := t.snapshot()
	e := t.e
	e.mu.RLock()
	defer e.mu.RUnlock()
	tb, err := e.table(tableName)
	if err != nil {
		return nil, err
	}
	pks, _ := t.candidates(tb, pred)
	pks = t.occCandidates(tb, pks)
	t.occTrackPred(tableName, pred)
	var out []storage.Row
	for _, pk := range pks {
		row := t.occVisible(tb, pk, snap)
		if row == nil || !pred.Match(tb.schema, row) {
			continue
		}
		out = append(out, row.Clone())
		t.occ.reads.AddRow(tableName, pk)
		e.emit(t, EvRead, tableName, pk, nil)
	}
	return out, nil
}

// occWriteRows buffers updates/deletes for every row matching pred. Matched
// rows are read through the snapshot (plus the buffer), so the write set is
// always covered by the read set and validation subsumes the guard.
func (t *Txn) occWriteRows(tableName string, pred storage.Pred, set map[string]storage.Value, del bool) (int, error) {
	snap := t.snapshot()
	e := t.e
	e.mu.RLock()
	defer e.mu.RUnlock()
	tb, err := e.table(tableName)
	if err != nil {
		return 0, err
	}
	schema := tb.schema
	for col := range set {
		if !schema.HasColumn(col) {
			return 0, fmt.Errorf("engine: table %q has no column %q", tableName, col)
		}
	}
	pks, _ := t.candidates(tb, pred)
	pks = t.occCandidates(tb, pks)
	t.occTrackPred(tableName, pred)
	changed := 0
	for _, pk := range pks {
		cur := t.occVisible(tb, pk, snap)
		t.occ.reads.AddRow(tableName, pk)
		if cur == nil || !pred.Match(schema, cur) {
			continue
		}
		if del {
			t.occ.put(rowKey{tableName, pk}, &occWrite{deleted: true})
			e.emit(t, EvDelete, tableName, pk, nil)
			changed++
			continue
		}
		newRow := cur.Clone()
		for col, v := range set {
			if d, isDelta := v.(storage.Delta); isDelta {
				curV, isInt := newRow.Get(schema, col).(int64)
				if !isInt {
					return changed, fmt.Errorf("engine: delta update on non-integer column %s.%s", tableName, col)
				}
				newRow.Set(schema, col, curV+d.N)
				continue
			}
			newRow.Set(schema, col, v)
		}
		if err := schema.CheckRow(newRow); err != nil {
			return changed, err
		}
		t.occ.put(rowKey{tableName, pk}, &occWrite{row: newRow})
		e.emit(t, EvWrite, tableName, pk, colsOf(set))
		changed++
	}
	return changed, nil
}

// occInsert buffers an insert. Primary keys are reserved under the
// exclusive latch (permanently — an aborted optimistic insert leaves an
// auto-increment gap, as real engines do), and the key's absence joins the
// read set so a concurrent committed insert of the same key fails
// validation.
func (t *Txn) occInsert(tableName string, vals map[string]storage.Value) (int64, error) {
	snap := t.snapshot()
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	tb, err := e.table(tableName)
	if err != nil {
		return 0, err
	}
	schema := tb.schema
	for col := range vals {
		if !schema.HasColumn(col) {
			return 0, fmt.Errorf("engine: table %q has no column %q", tableName, col)
		}
	}
	var pk int64
	if v, given := vals[storage.PKColumn]; given {
		p, isInt := v.(int64)
		if !isInt {
			return 0, fmt.Errorf("engine: explicit id must be int64, got %T", v)
		}
		if t.occVisible(tb, p, snap) != nil {
			return 0, fmt.Errorf("%w: %s id=%d", ErrDuplicateKey, tableName, p)
		}
		if ch, exists := tb.rows[p]; exists {
			if lc := ch.LatestCommitted(); lc != nil && !lc.Deleted {
				return 0, fmt.Errorf("%w: %s id=%d", ErrDuplicateKey, tableName, p)
			}
		}
		pk = p
		if pk > tb.autoInc {
			tb.autoInc = pk
		}
	} else {
		tb.autoInc++
		pk = tb.autoInc
	}
	t.occ.reads.AddRow(tableName, pk)

	row := make(storage.Row, len(schema.Columns))
	row[0] = pk
	for i := 1; i < len(schema.Columns); i++ {
		if v, ok := vals[schema.Columns[i].Name]; ok {
			row[i] = v
		}
	}
	if err := schema.CheckRow(row); err != nil {
		return 0, err
	}
	t.occ.put(rowKey{tableName, pk}, &occWrite{row: row})
	e.emit(t, EvInsert, tableName, pk, colsOf(vals))
	return pk, nil
}

// occAbortConflict finishes a transaction that failed commit validation.
func (t *Txn) occAbortConflict(witness bocc.RowID) {
	e := t.e
	e.stats.OCCConflicts.Add(1)
	if m := e.obsM(); m != nil {
		m.occConflicts.Inc()
	}
	if sched.Enabled() {
		sched.Annotate("occ-conflict txn=" + strconv.FormatUint(t.id, 10) +
			" row=" + witness.Table + "/" + strconv.FormatInt(witness.PK, 10))
	}
	t.rollbackState()
}

// occCommit validates and applies a ModeOCC transaction: backward
// validation of the read set against every write-set committed after the
// snapshot (first-committer-wins), then atomic apply of the buffered writes
// under the exclusive store latch, then the WAL append. Caller (Commit) has
// already passed the engine/commit schedule point and the done/crashed
// checks.
func (t *Txn) occCommit(commitStart time.Time) error {
	e := t.e
	s := t.occ
	if len(s.order) == 0 {
		// Read-only: a begin-timestamp snapshot is a consistent cut, so
		// the transaction serializes at its snapshot point with nothing
		// to validate and nothing to log.
		t.done = true
		e.lm.ReleaseAll(t.owner)
		e.stats.Commits.Add(1)
		e.stats.OCCCommits.Add(1)
		if m := e.obsM(); m != nil {
			m.commits.Inc()
			m.occCommits.Inc()
			if !commitStart.IsZero() {
				m.commitSeconds.Since(commitStart)
			}
		}
		e.emit(t, EvCommit, "", 0, nil)
		return nil
	}

	sched.Point("engine/occ/validate")
	e.cfg.Crash.Check(CrashPointOCCValidate)

	e.mu.Lock()
	// Look at the crashed flag again now that the latch is held. Crash sets
	// it before taking the latch to empty the tables and the validation log,
	// so a commit that passed Commit's check and got here after the wipe
	// would validate against nothing, apply a stale write set and log it.
	if e.crashed.Load() {
		e.mu.Unlock()
		t.rollbackState()
		return ErrConnLost
	}
	if w, conflict := e.occLog.Conflicts(&s.reads, t.startCSN); conflict {
		e.mu.Unlock()
		t.occAbortConflict(w)
		return ErrOCCConflict
	}
	// Backward validation covers committed transactions; in-flight
	// pessimistic writers hold row locks instead. Probe each write row's
	// lock non-blocking (latched, so this never parks): a row a 2PL
	// transaction holds — locked-but-unwritten included — cannot be
	// overwritten soundly, so it is a conflict. Pure-OCC workloads always
	// pass: optimistic transactions hold no locks outside this section.
	for _, k := range s.order {
		if !e.lm.TryAcquireLatched(t.owner, k, lockmgr.Exclusive) {
			e.mu.Unlock()
			e.lm.ReleaseAll(t.owner)
			t.occAbortConflict(bocc.RowID{Table: k.table, PK: k.pk})
			return ErrOCCConflict
		}
	}

	e.csn++
	csn := e.csn
	ws := bocc.WriteSet{CSN: csn, Rows: make([]bocc.RowID, 0, len(s.order))}
	for _, k := range s.order {
		w := s.buf[k]
		tb := e.tables[k.table]
		ch := tb.rows[k.pk]
		var oldRow storage.Row
		if ch != nil {
			if lc := ch.LatestCommitted(); lc != nil && !lc.Deleted {
				oldRow = lc.Row
			}
		}
		if w.deleted {
			if oldRow == nil {
				continue // insert-then-delete, or row gone: nothing to undo
			}
			ch.Prepend(nil, true, t.id)
			ch.Commit(t.id, csn)
			e.dropIndexEntries(tb, oldRow, k.pk)
			t.writes = append(t.writes, wal.Op{Kind: wal.OpDelete, Table: k.table, PK: k.pk})
			t.trackRowWrite(tb, k.pk, oldRow, nil)
			ws.Rows = append(ws.Rows, bocc.RowID{Table: k.table, PK: k.pk})
			continue
		}
		if ch == nil {
			ch = &mvcc.Chain{}
			tb.rows[k.pk] = ch
		}
		ch.Prepend(w.row.Clone(), false, t.id)
		ch.Commit(t.id, csn)
		if oldRow == nil {
			e.addIndexEntries(tb, w.row, k.pk)
			if k.pk > tb.autoInc {
				tb.autoInc = k.pk
			}
			t.writes = append(t.writes, wal.Op{Kind: wal.OpInsert, Table: k.table, PK: k.pk, Row: w.row.Clone()})
		} else {
			for col, ix := range tb.indexes {
				oldV, newV := oldRow.Get(tb.schema, col), w.row.Get(tb.schema, col)
				if !storage.Equal(oldV, newV) {
					ix.Add(newV, k.pk)
				}
			}
			t.writes = append(t.writes, wal.Op{Kind: wal.OpUpdate, Table: k.table, PK: k.pk, Row: w.row.Clone()})
		}
		t.trackRowWrite(tb, k.pk, oldRow, w.row)
		ws.Rows = append(ws.Rows, bocc.RowID{Table: k.table, PK: k.pk})
	}
	e.occLog.Note(ws)
	// Postgres Serializable 2PL readers validate via commit footprints;
	// OCC commits must appear there too or mixed-mode SSI misses rw
	// conflicts.
	if e.cfg.Dialect == Postgres && len(t.writePages) > 0 {
		e.noteCommitFootprint(commitFootprint{csn: csn, txnID: t.id, writePages: t.writePages}, 0)
	}
	e.mu.Unlock()
	e.lm.ReleaseAll(t.owner)

	sched.Point("engine/occ/commit")
	e.cfg.Crash.Check(CrashPointOCCCommit)
	if len(t.writes) > 0 {
		lsn, err := e.log.Append(t.id, t.writes)
		if err != nil {
			if ce, ok := err.(*sim.CrashError); ok {
				// Same contract as the 2PL commit path: the process died
				// before acknowledging; recovery rebuilds from the WAL.
				panic(ce)
			}
			panic(fmt.Sprintf("engine: WAL append failed: %v", err))
		}
		t.commitLSN = lsn
		if m := e.obsM(); m != nil {
			m.walFsyncs.Inc()
		}
	}
	t.done = true
	e.stats.Commits.Add(1)
	e.stats.OCCCommits.Add(1)
	if m := e.obsM(); m != nil {
		m.commits.Inc()
		m.occCommits.Inc()
		if !commitStart.IsZero() {
			m.commitSeconds.Since(commitStart)
		}
	}
	e.emit(t, EvCommit, "", 0, nil)
	return nil
}
