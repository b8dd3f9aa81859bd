package engine

import (
	"sort"
	"strconv"
	"time"

	"adhoctx/internal/lockmgr"
	"adhoctx/internal/mvcc"
	"adhoctx/internal/occkit/bocc"
	"adhoctx/internal/sched"
	"adhoctx/internal/storage"
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
// commit-time backward validation checks, and the local write buffer whose
// contents commit installs. Nothing here touches shared structures until
// commit.
type occState struct {
	reads bocc.ReadSet
	buf   map[rowKey]storage.Row // buffered row images; nil is a tombstone
	order []rowKey               // deterministic apply order (first-buffer order)
}

func (s *occState) put(k rowKey, row storage.Row) {
	if s.buf == nil {
		s.buf = make(map[rowKey]storage.Row)
	}
	if _, ok := s.buf[k]; !ok {
		s.order = append(s.order, k)
	}
	s.buf[k] = row
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
	if row, ok := t.occ.buf[rowKey{tb.schema.Table, pk}]; ok {
		return row
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
	tb, err := e.writeTable(tableName, set)
	if err != nil {
		return 0, err
	}
	pks, _ := t.candidates(tb, pred)
	pks = t.occCandidates(tb, pks)
	t.occTrackPred(tableName, pred)
	changed := 0
	for _, pk := range pks {
		cur := t.occVisible(tb, pk, snap)
		t.occ.reads.AddRow(tableName, pk)
		if cur == nil || !pred.Match(tb.schema, cur) {
			continue
		}
		row, err := rowAfter(tb.schema, cur, set, del)
		if err != nil {
			return changed, err
		}
		t.occ.put(rowKey{tableName, pk}, row)
		e.emitWrite(t, tableName, pk, set, del)
		changed++
	}
	return changed, nil
}

// occInsert buffers an insert. Primary keys are reserved under the
// exclusive latch (see newRow), and the key's absence joins the read set so
// a concurrent committed insert of the same key fails validation.
func (t *Txn) occInsert(tableName string, vals map[string]storage.Value) (int64, error) {
	snap := t.snapshot()
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	tb, err := e.writeTable(tableName, vals)
	if err != nil {
		return 0, err
	}
	row, err := newRow(tb, vals, func(pk int64) bool {
		_, cur := t.currentRow(tb, pk)
		return cur != nil || t.occVisible(tb, pk, snap) != nil
	})
	if err != nil {
		return 0, err
	}
	pk := row[0].(int64)
	t.occ.reads.AddRow(tableName, pk)
	t.occ.put(rowKey{tableName, pk}, row)
	e.emit(t, EvInsert, tableName, pk, colsOf(vals))
	return pk, nil
}

// occAbortConflict finishes a transaction that failed commit validation.
// The caller must not hold e.mu.
func (t *Txn) occAbortConflict(witness bocc.RowID) error {
	t.e.count(cOCCConflicts)
	if sched.Enabled() {
		sched.Annotate("occ-conflict txn=" + strconv.FormatUint(t.id, 10) +
			" row=" + witness.Table + "/" + strconv.FormatInt(witness.PK, 10))
	}
	t.rollbackState()
	return ErrOCCConflict
}

// occCommit is the optimistic prelude to the shared commit tail: backward
// validation of the read set against every write-set committed after the
// snapshot (first-committer-wins), a non-blocking probe of each written
// row's lock, then install of the buffered writes — all under one hold of
// the exclusive store latch, which commitApply finishes. Caller (Commit) has
// already passed the engine/commit schedule point and the done/crashed
// checks.
func (t *Txn) occCommit(commitStart time.Time) error {
	e := t.e
	s := t.occ
	if len(s.order) == 0 {
		// Read-only: a begin-timestamp snapshot is a consistent cut, so
		// the transaction serializes at its snapshot point with nothing
		// to validate, nothing to apply and nothing to log.
		e.lm.ReleaseAll(t.owner)
		t.commitDone(commitStart)
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
		return t.occAbortConflict(w)
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
			return t.occAbortConflict(bocc.RowID{Table: k.table, PK: k.pk})
		}
	}
	for _, k := range s.order {
		tb, row := e.tables[k.table], s.buf[k]
		_, old := t.currentRow(tb, k.pk) // the latest committed image: the probe lock is held
		if row == nil && old == nil {
			continue // insert-then-delete, or row gone: nothing to write
		}
		t.install(tb, k.pk, old, row)
	}
	t.commitApply()
	e.mu.Unlock()
	// The probe locks go before the append, not after it as 2PL's row locks
	// do: held across the fsync, they would turn every concurrent commit to
	// the same hot row into a spurious conflict.
	e.lm.ReleaseAll(t.owner)

	sched.Point("engine/occ/commit")
	e.cfg.Crash.Check(CrashPointOCCCommit)
	t.commitAppend()
	t.commitDone(commitStart)
	return nil
}
