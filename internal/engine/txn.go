package engine

import (
	"fmt"
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

// rowKey is the lockable identity of one row.
type rowKey struct {
	table string
	pk    int64
}

// LockShardHash implements lockmgr.ShardHasher so the hot row-lock path
// avoids the lock manager's generic fallback hash.
func (k rowKey) LockShardHash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(k.table); i++ {
		h = (h ^ uint64(k.table[i])) * 1099511628211
	}
	return (h ^ uint64(k.pk)) * 1099511628211
}

// advisoryKey is the lockable identity of one user/advisory lock
// (PostgreSQL's pg_advisory_xact_lock analogue, §6 Table 7a).
type advisoryKey struct {
	key int64
}

// LockShardHash implements lockmgr.ShardHasher.
func (k advisoryKey) LockShardHash() uint64 {
	x := uint64(k.key) * 0x9e3779b97f4a7c15
	return x ^ (x >> 29)
}

// undoEntry reverses one write during rollback.
type undoEntry struct {
	t        *table
	pk       int64
	chain    *mvcc.Chain
	addedIdx []idxEntry
	// delRow is the before-image of a DELETE. When the delete commits, the
	// row's index entries are dropped so dead keys do not accumulate in
	// the indexes (the chain itself stays for older snapshots).
	delRow storage.Row
}

type idxEntry struct {
	col string
	key storage.Value
}

// savepoint marks a rollback point inside a transaction (§3.1.2 discussion;
// Table 7a "Savepoints").
type savepoint struct {
	name     string
	undoLen  int
	writeLen int
}

// Txn is one transaction. A Txn must be used by a single goroutine, mirroring
// a database session. Every statement charges one simulated network round
// trip.
type Txn struct {
	e     *Engine
	id    uint64
	iso   Isolation
	mode  Mode
	owner *lockmgr.Owner
	tag   string

	// occ holds ModeOCC state: the read set for commit-time backward
	// validation and the local write buffer. Nil in Mode2PL.
	occ *occState

	snap      mvcc.Snapshot
	snapValid bool
	startCSN  uint64
	// pin registers the transaction's first snapshot with the engine's
	// watermark until the transaction ends; nil before its first snapshot.
	pin *snapPin

	writes     []wal.Op
	undo       []undoEntry
	savepoints []savepoint
	commitLSN  uint64

	// SSI read/write page tracking (Postgres Serializable only).
	readPages  map[pageKey]struct{}
	writePages map[pageKey]struct{}

	done bool
}

// ID returns the transaction's unique ID.
func (t *Txn) ID() uint64 { return t.id }

// CommitLSN returns the WAL LSN assigned to this transaction's commit record,
// or 0 for a transaction that wrote nothing (or has not committed). Serving
// layers return it to clients as the bounded-staleness watermark.
func (t *Txn) CommitLSN() uint64 { return t.commitLSN }

// Isolation returns the transaction's isolation level.
func (t *Txn) Isolation() Isolation { return t.iso }

// Mode returns the transaction's execution mode.
func (t *Txn) Mode() Mode { return t.mode }

// SetTag labels the transaction's trace events with an API name.
func (t *Txn) SetTag(tag string) {
	t.tag = tag
}

// begin-of-statement bookkeeping shared by all statements. OCC statements
// get their own schedule label: every optimistic read (and buffered write,
// which is a snapshot read plus local mutation) is a distinct explorable
// step, without adding schedule depth over the 2PL path.
func (t *Txn) startStatement() error {
	if t.mode == ModeOCC {
		sched.Point("engine/occ/read")
	} else {
		sched.Point("engine/stmt")
	}
	if t.done {
		return ErrTxnDone
	}
	if t.e.crashed.Load() {
		// The crash flag can be observed after this transaction already
		// acquired locks in the (wiped-and-reused) lock manager; roll back
		// so they are released rather than leaked until lock timeout.
		t.rollbackState()
		return ErrConnLost
	}
	t.e.cfg.Net.ChargeRTT(1)
	t.e.count(cStatements)
	return nil
}

// snapshot returns the MVCC snapshot this statement reads through,
// respecting the isolation level's snapshot lifetime. ModeOCC always pins
// the begin timestamp: validation is relative to one snapshot, whatever the
// isolation level says about snapshot lifetime.
func (t *Txn) snapshot() mvcc.Snapshot {
	if t.iso == ReadCommitted && t.mode != ModeOCC {
		return mvcc.Snapshot{AsOf: t.e.pinSnapshot(t), Self: t.id}
	}
	if !t.snapValid {
		t.snap = mvcc.Snapshot{AsOf: t.e.pinSnapshot(t), Self: t.id}
		t.startCSN = t.snap.AsOf
		t.snapValid = true
	}
	return t.snap
}

// usesFCW reports whether writes must respect first-committer-wins.
func (t *Txn) usesFCW() bool {
	return t.e.cfg.Dialect == Postgres && t.iso >= RepeatableRead
}

// usesSSI reports whether predicate-page read tracking is active.
func (t *Txn) usesSSI() bool {
	return t.e.cfg.Dialect == Postgres && t.iso == Serializable
}

// usesGapLocks reports whether locking scans take gap locks.
func (t *Txn) usesGapLocks() bool {
	return t.e.cfg.Dialect == MySQL && t.iso >= RepeatableRead
}

func (t *Txn) noteReadPage(k pageKey) {
	if t.readPages == nil {
		t.readPages = make(map[pageKey]struct{})
	}
	t.readPages[k] = struct{}{}
}

func (t *Txn) noteWritePage(k pageKey) {
	if t.writePages == nil {
		t.writePages = make(map[pageKey]struct{})
	}
	t.writePages[k] = struct{}{}
}

// abort rolls the transaction back internally after a fatal statement error
// (deadlock victim, serialization failure), matching MySQL/PostgreSQL
// behaviour where the transaction cannot continue.
func (t *Txn) abort() {
	if t.done {
		return
	}
	t.rollbackState()
}

// lockErr translates the outcome of a lock wait and keeps its books:
// deadlocks and timeouts are counted, and a deadlock victim is rolled back
// (MySQL semantics) while a timed-out statement leaves the transaction
// usable.
func (t *Txn) lockErr(err error) error {
	err = mapLockErr(err)
	switch err {
	case ErrDeadlock:
		t.e.count(cDeadlocks)
		t.abort()
	case ErrLockTimeout:
		t.e.count(cLockTimeouts)
	}
	return err
}

// failSerialization counts a first-committer-wins or SSI failure and rolls
// the transaction back. The caller must not hold e.mu.
func (t *Txn) failSerialization() error {
	t.e.count(cSerializationErr)
	t.abort()
	return ErrSerialization
}

// Commit makes the transaction's writes durable and visible, releases its
// locks, and returns ErrSerialization if an SSI conflict dooms it.
//
// Both execution modes commit through one tail — commitApply under the store
// latch, then commitAppend and commitDone — and differ only in what comes
// before it (2PL: the SSI check; OCC: validation, see occCommit) and in when
// the lock manager lets go: 2PL holds its row locks until the record is
// durable, OCC drops its commit-time probe locks before the append.
func (t *Txn) Commit() error {
	sched.Point("engine/commit")
	if sched.Enabled() {
		// Stamp the txn id (and tag, when set) onto the schedule step so
		// provenance tools can join WAL records back to the exact trace step
		// that committed them.
		note := "txn=" + strconv.FormatUint(t.id, 10)
		if t.tag != "" {
			note += " tag=" + t.tag
		}
		sched.Annotate(note)
	}
	if t.done {
		return ErrTxnDone
	}
	if t.e.crashed.Load() {
		t.rollbackState()
		return ErrConnLost
	}
	e := t.e
	e.cfg.Net.ChargeRTT(1)
	commitStart := e.obsNow()
	if t.mode == ModeOCC {
		return t.occCommit(commitStart)
	}

	e.mu.Lock()
	if t.usesSSI() && e.ssiConflict(t) {
		e.mu.Unlock()
		return t.failSerialization()
	}
	t.commitApply()
	e.mu.Unlock()
	t.commitAppend()
	e.lm.ReleaseAll(t.owner)
	t.commitDone(commitStart)
	return nil
}

// commitApply makes the transaction's installed writes — its undo list,
// whichever mode put them there — visible at the next commit sequence
// number, prunes each written chain to the snapshot watermark, and tells the
// two validators about the writes. A transaction that wrote nothing takes no
// CSN: the clock advances only with commits that make versions, so on a
// follower, where replicated records commit at their LSN, local readers'
// commits cannot run it past the log. Caller holds e.mu exclusively.
func (t *Txn) commitApply() {
	e := t.e
	// The committer reads nothing more, so its own snapshot must not hold
	// back the prune of the chains it wrote.
	t.unpin()
	if len(t.undo) == 0 {
		return
	}
	e.csn++
	w := e.watermark()
	ws := bocc.WriteSet{CSN: e.csn, Rows: make([]bocc.RowID, 0, len(t.undo))}
	for i := range t.undo {
		u := &t.undo[i]
		u.chain.Commit(t.id, e.csn)
		if u.delRow != nil {
			// Eager index cleanup for committed deletes. Readers with
			// older snapshots lose the *index path* to the dead row
			// (point lookups by primary key still work); the studied
			// workloads never index-scan for rows deleted mid-snapshot,
			// and without this cleanup delete-heavy patterns — the DB
			// lock table churns one row per acquisition — degrade
			// quadratically.
			e.dropIndexEntries(u.t, u.delRow, u.pk)
		}
		e.prune(u.t, u.pk, u.chain, w)
		ws.Rows = append(ws.Rows, bocc.RowID{Table: u.t.schema.Table, PK: u.pk})
	}
	// Postgres Serializable readers check commit footprints (write pages are
	// only tracked under that dialect), optimistic validators the write-set
	// log; commits of either mode appear in both, so mixed-mode conflicts
	// are seen from both sides.
	e.noteCommitFootprint(commitFootprint{csn: e.csn, txnID: t.id, writePages: t.writePages})
	e.occLog.Note(ws)
}

// commitAppend makes the commit durable: the one place a transaction's redo
// record reaches the WAL, which owns the flush cost (serialized fsync; one
// per commit, or one per batch under group commit). It runs after
// commitApply has released the latch, so the record's LSN is assigned after
// the commit is visible.
func (t *Txn) commitAppend() {
	if len(t.writes) == 0 {
		return
	}
	lsn, err := t.e.log.Append(t.id, t.writes)
	if err != nil {
		if ce, ok := err.(*sim.CrashError); ok {
			// A WAL crash point fired while this commit's batch was in
			// flight: the "process" died before the commit was
			// acknowledged. Re-panic so the serving layer's crash
			// recovery (server.crash) treats it as process death.
			panic(ce)
		}
		// Encoding failures are programming errors; the data is
		// already visible, so surface loudly.
		panic(fmt.Sprintf("engine: WAL append failed: %v", err))
	}
	t.commitLSN = lsn
	t.e.count(cWALFsyncs)
}

// commitDone finishes a committed transaction: counters, commit latency, and
// the commit event.
func (t *Txn) commitDone(commitStart time.Time) {
	e := t.e
	t.done = true
	t.unpin()
	e.count(cCommits)
	if t.mode == ModeOCC {
		e.count(cOCCCommits)
	}
	if !commitStart.IsZero() {
		e.metrics.Load().commitSeconds.Since(commitStart)
	}
	e.emit(t, EvCommit, "", 0, nil)
}

// ssiConflict implements the conservative SSI rule: abort the committer if
// any transaction that committed after our snapshot wrote a page we read.
// (The reader→writer direction is covered when the other side commits.)
// Caller holds e.mu.
func (e *Engine) ssiConflict(t *Txn) bool {
	if len(t.readPages) == 0 {
		return false
	}
	for _, f := range e.recent {
		if f.csn <= t.startCSN || f.txnID == t.id {
			continue
		}
		for pk := range f.writePages {
			if _, hit := t.readPages[pk]; hit {
				return true
			}
		}
	}
	return false
}

// Rollback undoes the transaction and releases its locks. Rolling back a
// finished transaction returns ErrTxnDone.
func (t *Txn) Rollback() error {
	sched.Point("engine/rollback")
	if t.done {
		return ErrTxnDone
	}
	if t.e.crashed.Load() {
		t.rollbackState()
		return ErrConnLost
	}
	t.e.cfg.Net.ChargeRTT(1)
	t.rollbackState()
	return nil
}

// rollbackState undoes writes, releases locks, and finishes the txn without
// charging network costs (used by abort paths too).
func (t *Txn) rollbackState() {
	e := t.e
	e.mu.Lock()
	t.undoTo(0)
	e.mu.Unlock()
	e.lm.ReleaseAll(t.owner)
	t.done = true
	t.unpin()
	e.count(cRollbacks)
	e.emit(t, EvRollback, "", 0, nil)
}

// unpin ends the transaction's snapshot registration, if it took one.
func (t *Txn) unpin() {
	if t.pin != nil {
		t.pin.n.Add(-1)
		t.pin = nil
	}
}

// undoTo reverses undo entries down to the given length. Caller holds e.mu.
func (t *Txn) undoTo(n int) {
	for i := len(t.undo) - 1; i >= n; i-- {
		u := t.undo[i]
		if u.t.rows[u.pk] != u.chain {
			// The chain died with a crash; the tables and indexes now
			// hold recovered state that this transaction never wrote.
			continue
		}
		h := u.chain.Head()
		if u.chain.RollbackOne(t.id) {
			// A rolled-back insert unlinks the row entirely.
			delete(u.t.rows, u.pk)
		} else if u.chain.Head() != h {
			t.e.countOldVersions(-1)
		}
		for _, ie := range u.addedIdx {
			u.t.indexes[ie.col].Remove(ie.key, u.pk)
		}
	}
	t.undo = t.undo[:n]
}

// Savepoint records a named savepoint. Not supported in ModeOCC (writes are
// buffered, not applied, so there is no undo log to mark).
func (t *Txn) Savepoint(name string) error {
	if err := t.startStatement(); err != nil {
		return err
	}
	if t.mode == ModeOCC {
		return fmt.Errorf("engine: savepoints are not supported in OCC mode")
	}
	t.savepoints = append(t.savepoints, savepoint{
		name:     name,
		undoLen:  len(t.undo),
		writeLen: len(t.writes),
	})
	return nil
}

// RollbackTo rolls back to the most recent savepoint with the given name,
// keeping locks (as InnoDB and PostgreSQL do) and keeping the transaction
// open.
func (t *Txn) RollbackTo(name string) error {
	if err := t.startStatement(); err != nil {
		return err
	}
	if t.mode == ModeOCC {
		return fmt.Errorf("engine: savepoints are not supported in OCC mode")
	}
	for i := len(t.savepoints) - 1; i >= 0; i-- {
		if t.savepoints[i].name != name {
			continue
		}
		sp := t.savepoints[i]
		t.e.mu.Lock()
		t.undoTo(sp.undoLen)
		t.e.mu.Unlock()
		t.writes = t.writes[:sp.writeLen]
		t.savepoints = t.savepoints[:i+1]
		return nil
	}
	return fmt.Errorf("engine: no savepoint %q", name)
}

// AdvisoryLock acquires a transaction-scoped user lock (Table 7a "explicit
// user locks"); it is released at commit/rollback.
func (t *Txn) AdvisoryLock(key int64) error {
	if err := t.startStatement(); err != nil {
		return err
	}
	return t.lockErr(t.e.lm.Acquire(t.owner, advisoryKey{key}, lockmgr.Exclusive))
}

// AdvisoryTryLock attempts a non-blocking user lock acquisition.
func (t *Txn) AdvisoryTryLock(key int64) (bool, error) {
	if err := t.startStatement(); err != nil {
		return false, err
	}
	return t.e.lm.TryAcquire(t.owner, advisoryKey{key}, lockmgr.Exclusive), nil
}
