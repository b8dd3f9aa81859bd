// Package engine implements the single-node transactional storage engine the
// study's applications run on. One codebase provides two behavioural
// dialects — MySQL-like (2PL writes, gap locks, deadlock detection, consistent
// reads, Repeatable Read default) and PostgreSQL-like (snapshot isolation,
// first-committer-wins, SSI-style predicate-page conflicts at Serializable,
// Read Committed default) — because every MySQL/PostgreSQL-specific behaviour
// the paper leans on is a concurrency-control policy, not a storage format.
//
// See DESIGN.md §4 for the behavioural contract of each dialect.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adhoctx/internal/lockmgr"
	"adhoctx/internal/mvcc"
	"adhoctx/internal/occkit/bocc"
	"adhoctx/internal/sched"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// table is one table's volatile state. The engine's store mutex guards all
// fields; chains are only traversed under it.
type table struct {
	schema  *storage.Schema
	indexes map[string]*storage.Index // secondary, by column
	rows    map[int64]*mvcc.Chain
	autoInc int64
}

// commitFootprint remembers which SSI pages a committed transaction wrote,
// for Serializable conflict checks by concurrent transactions.
type commitFootprint struct {
	csn        uint64
	txnID      uint64
	writePages map[pageKey]struct{}
}

// Engine is the database. Safe for concurrent use.
type Engine struct {
	cfg Config

	// mu is the store latch: tables, chains, indexes, commit log. Writers
	// (commit apply, 2PL statement mutation, DDL, recovery) take it
	// exclusively; MVCC snapshot reads take it shared — version chains are
	// only mutated under the exclusive mode, so shared-mode traversal is
	// race-free. This is the RW-latched read path OCC reads ride: many
	// readers proceed concurrently with zero lock-manager traffic.
	mu     sync.RWMutex
	tables map[string]*table

	lm  *lockmgr.Manager
	log *wal.Log

	nextTxn atomic.Uint64
	// csn is the last issued commit sequence number; snapshots read it
	// under mu.
	csn uint64
	// pins is the snapshot registry, oldest first: each transaction's first
	// snapshot joins the last pin under the shared latch hold that reads
	// csn, and leaves it when the transaction ends. Only the exclusive latch
	// changes the slice (watermark, Crash); counts move atomically.
	pins []*snapPin
	// oldVersions counts the versions beyond each chain's newest: what the
	// engine_mvcc_old_versions gauge shows. Guarded by mu (exclusive).
	oldVersions int64
	// recent commit footprints with csn > oldest active snapshot (pruned
	// lazily); used by Postgres Serializable.
	recent []commitFootprint
	// occLog holds recent committed write-sets for ModeOCC backward
	// validation. Both modes note their write-sets into it, so OCC
	// validation is sound against concurrent 2PL committers too. Guarded
	// by mu (exclusive).
	occLog *bocc.Log

	// crashed poisons every live transaction until Recover.
	crashed atomic.Bool

	// ckptPrefix is the checkpoint body this engine was booted from
	// (LoadRecovered): the committed projection covering every LSN at or
	// below the checkpoint. In-process Crash/Recover replays it before the
	// WAL, which holds only the records past the checkpoint.
	ckptPrefix []byte

	tracer   atomic.Pointer[Tracer]
	eventSeq atomic.Uint64
	metrics  atomic.Pointer[engineMetrics]
}

// New creates an engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		tables: make(map[string]*table),
		occLog: bocc.NewLog(0),
		pins:   []*snapPin{{}},
		lm:     lockmgr.NewSharded(cfg.LockTimeout, cfg.LockShards),
		// The WAL owns the durable-commit cost: flushes serialize like a
		// single log device, and group commit (when enabled) coalesces
		// concurrent commits into batches sharing one fsync.
		log: wal.NewWithOptions(wal.Options{
			Latency:     cfg.WALFsync,
			GroupCommit: cfg.GroupCommit,
			Crash:       cfg.Crash,
			Device:      cfg.WALDevice,
		}),
	}
	e.metrics.Store(newEngineMetrics(nil))
	return e
}

// WAL exposes the engine's write-ahead log (diagnostics, tests, and the
// benchmark harness's fsync accounting).
func (e *Engine) WAL() *wal.Log { return e.log }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTracer installs (or clears, with nil) the event tracer.
func (e *Engine) SetTracer(t Tracer) {
	if t == nil {
		e.tracer.Store(nil)
		return
	}
	e.tracer.Store(&t)
}

// LockManager exposes the engine's lock manager. Ad hoc primitives that sit
// beside the engine (the MEM lock table analogue of Java locks does not, but
// SELECT FOR UPDATE does) share it so deadlock detection spans both.
func (e *Engine) LockManager() *lockmgr.Manager { return e.lm }

// CreateTable registers a schema plus secondary indexes on the named
// columns. DDL is not transactional and panics on misuse: schemas are fixed
// at application boot in every studied application.
func (e *Engine) CreateTable(schema *storage.Schema, indexCols ...string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[schema.Table]; dup {
		panic(fmt.Sprintf("engine: table %q already exists", schema.Table))
	}
	t := &table{
		schema:  schema,
		indexes: make(map[string]*storage.Index),
		rows:    make(map[int64]*mvcc.Chain),
	}
	for _, col := range indexCols {
		schema.MustCol(col) // panics on unknown column
		t.indexes[col] = storage.NewIndex(col)
	}
	e.tables[schema.Table] = t
}

// Schema returns the schema of the named table, or nil.
func (e *Engine) Schema(name string) *storage.Schema {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tables[name]; ok {
		return t.schema
	}
	return nil
}

func (e *Engine) table(name string) (*table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// snapPin counts the live transactions registered while it was the last
// pin: every snapshot they take reads at csn or later.
type snapPin struct {
	csn uint64
	n   atomic.Int64
}

// pinSnapshot reads the commit clock for a snapshot of t. The first call
// also registers t on the last pin, under the same latch hold, so the pin
// bounds every AsOf t reads at; the registration lasts until t ends (unpin).
func (e *Engine) pinSnapshot(t *Txn) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if t.pin == nil {
		t.pin = e.pins[len(e.pins)-1]
		t.pin.n.Add(1)
	}
	return e.csn
}

// watermark is the oldest CSN a live snapshot can read at — the oldest
// registered pin's, or the current CSN when no transaction is registered —
// and sets the lag gauge. It also retires the pins nobody holds and starts a
// pin at the current CSN for later registrations. Caller holds e.mu
// exclusively, so no registration runs concurrently; an unpin that does can
// only raise the true watermark, so the one returned is never too high.
func (e *Engine) watermark() uint64 {
	for len(e.pins) > 1 && e.pins[0].n.Load() == 0 {
		e.pins[0] = nil
		e.pins = e.pins[1:]
	}
	if last := e.pins[len(e.pins)-1]; last.csn != e.csn {
		if last.n.Load() == 0 {
			last.csn = e.csn
		} else {
			e.pins = append(e.pins, &snapPin{csn: e.csn})
		}
	}
	w := e.csn
	if p := e.pins[0]; p.n.Load() > 0 {
		w = p.csn
	}
	e.metrics.Load().watermarkLag.Set(int64(e.csn - w))
	return w
}

// SnapshotWatermark reports the snapshot registry: how many live
// transactions hold a snapshot, the watermark (the oldest CSN one of them can
// read at, or the current CSN when none does) and the current CSN. A
// transaction that is neither committed nor rolled back holds its snapshot,
// and the watermark, forever.
func (e *Engine) SnapshotWatermark() (registered int, watermark, csn uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	watermark = e.csn
	for i := len(e.pins) - 1; i >= 0; i-- {
		if n := e.pins[i].n.Load(); n > 0 {
			registered += int(n)
			watermark = e.pins[i].csn
		}
	}
	return registered, watermark, e.csn
}

// Begin starts a transaction at the given isolation level
// (IsolationDefault resolves per dialect) in the engine's configured
// execution mode. It charges one network round trip, like the BEGIN
// statement it models.
func (e *Engine) Begin(iso Isolation) *Txn {
	return e.BeginMode(e.cfg.Mode, iso)
}

// BeginMode starts a transaction in an explicit execution mode, overriding
// the engine default. Both modes share the engine's tables, WAL, and commit
// clock; see DESIGN.md §10 for how they stay serializable against each
// other.
func (e *Engine) BeginMode(mode Mode, iso Isolation) *Txn {
	sched.Point("engine/begin")
	if iso == IsolationDefault {
		iso = e.cfg.Dialect.DefaultIsolation()
	}
	e.cfg.Net.ChargeRTT(1)
	id := e.nextTxn.Add(1)
	t := &Txn{
		e:     e,
		id:    id,
		iso:   iso,
		mode:  mode,
		owner: e.lm.NewOwner("txn"),
	}
	if mode == ModeOCC {
		t.occ = &occState{}
	}
	e.count(cBegins)
	e.emit(t, EvBegin, "", 0, nil)
	return t
}

// ---- crash and recovery (§3.4.2, §4.3) ----

// Crash simulates a database-server crash: all volatile state vanishes, all
// locks evaporate, and every live transaction starts failing with
// ErrConnLost. The WAL survives.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tables {
		t.rows = make(map[int64]*mvcc.Chain)
		t.indexes = freshIndexes(t.indexes)
		t.autoInc = 0
	}
	e.recent = nil
	// Every snapshot died with the tables: transactions still holding one
	// unpin a retired pin, which nothing reads.
	e.pins = []*snapPin{{csn: e.csn}}
	e.countOldVersions(-e.oldVersions)
	// The OCC validation log dies with the volatile state: every live
	// optimistic transaction is poisoned, so nothing can validate against
	// pre-crash history; post-recovery commits rebuild it from empty.
	e.occLog.Reset()
	// Blocked sessions must observe the crash, not wait forever on locks
	// that died with it. Shutdown wipes all lock state and wakes waiters
	// with a connection error; the manager itself is reused (swapping the
	// pointer would race with in-flight statements).
	e.lm.Shutdown()
}

func freshIndexes(old map[string]*storage.Index) map[string]*storage.Index {
	out := make(map[string]*storage.Index, len(old))
	for col := range old {
		out[col] = storage.NewIndex(col)
	}
	return out
}

// Recover replays the durable state — the loaded checkpoint prefix (if this
// engine was booted from a disk recovery, see LoadRecovered) and then the
// WAL — restoring every committed transaction, and reopens the engine for
// new transactions. It also restores the commit clock past every replayed
// LSN so new snapshots see recovered data.
func (e *Engine) Recover() error {
	// Reopen a log poisoned by a fired group-commit crash point; the
	// durable image (what replay below reads) is untouched.
	e.log.Recover()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := wal.Replay(e.ckptPrefix, e.applyRecordLocked); err != nil {
		return err
	}
	if err := wal.Replay(e.log.Bytes(), e.applyRecordLocked); err != nil {
		return err
	}
	e.crashed.Store(false)
	return nil
}

// applyRecordLocked applies one redo record to the volatile store and
// advances the commit clock — the single replay primitive shared by crash
// recovery, replicated apply, and checkpoint load. Caller holds e.mu.
func (e *Engine) applyRecordLocked(rec wal.Record) error {
	if rec.LSN > e.csn {
		e.csn = rec.LSN
	}
	w := e.watermark()
	for _, op := range rec.Ops {
		t, ok := e.tables[op.Table]
		if !ok {
			return fmt.Errorf("engine: replay references unknown table %q", op.Table)
		}
		e.applyRedoWrite(t, op, rec.TxnID, rec.LSN, w)
	}
	// Recovered transaction IDs stay retired, so an ID names one
	// transaction in the log, the traces and the lock manager. (Visibility
	// does not depend on it: a reader sees its own writes only while they
	// are uncommitted, and a follower's readers draw IDs the leader may
	// use later.)
	for {
		cur := e.nextTxn.Load()
		if rec.TxnID <= cur || e.nextTxn.CompareAndSwap(cur, rec.TxnID) {
			break
		}
	}
	return nil
}

// applyRedoWrite puts one replayed write on its row's chain as a version (or
// tombstone) committed at lsn, then prunes the chain to watermark w, the way
// commitApply treats a local commit: snapshots older than the record keep
// reading the row as it was.
func (e *Engine) applyRedoWrite(t *table, op wal.Op, txnID, lsn, w uint64) {
	ch, ok := t.rows[op.PK]
	var row storage.Row
	switch {
	case op.Kind != wal.OpDelete:
		row = op.Row.Clone()
		if !ok {
			ch = &mvcc.Chain{}
			t.rows[op.PK] = ch
		}
		e.addIndexEntries(t, row, op.PK)
		if op.PK > t.autoInc {
			t.autoInc = op.PK
		}
	case !ok:
		return // a delete of a row this state never held
	default:
		// As for a local delete (commitApply), the dead row's index entries
		// go at once.
		if cur := ch.LatestCommitted(); cur != nil && !cur.Deleted {
			e.dropIndexEntries(t, cur.Row, op.PK)
		}
	}
	if ch.Prepend(row, row == nil, txnID).Prev != nil {
		e.countOldVersions(1)
	}
	ch.Commit(txnID, lsn)
	e.prune(t, op.PK, ch, w)
}

// prune shortens pk's chain ch to what snapshots at watermark w or later can
// read (mvcc.Chain.Prune), drops the index entries only the unlinked versions
// carried, and unlinks from the table a chain left holding only a committed
// tombstone: for every live snapshot the row is gone. A chain that is no
// longer the table's (it died with a crash) is left alone. Caller holds e.mu
// exclusively.
func (e *Engine) prune(t *table, pk int64, ch *mvcc.Chain, w uint64) {
	if t.rows[pk] != ch {
		return
	}
	var n int64
	for v := ch.Prune(w); v != nil; v = v.Prev {
		n++
		if v.Row != nil {
			e.dropUncarried(t, pk, ch, v.Row)
		}
	}
	if n != 0 {
		e.countOldVersions(-n)
	}
	if h := ch.Head(); h.Prev == nil && h.Deleted && h.CSN != 0 {
		delete(t.rows, pk)
	}
}

// dropUncarried removes pk's index entries for row's keys that no version
// left on ch carries. Caller holds e.mu exclusively.
func (e *Engine) dropUncarried(t *table, pk int64, ch *mvcc.Chain, row storage.Row) {
	for col, ix := range t.indexes {
		key := row.Get(t.schema, col)
		carried := false
		for v := ch.Head(); v != nil && !carried; v = v.Prev {
			carried = v.Row != nil && storage.Equal(v.Row.Get(t.schema, col), key)
		}
		if !carried {
			ix.Remove(key, pk)
		}
	}
}

// countOldVersions moves the count of versions beyond each chain's newest.
// Caller holds e.mu exclusively.
func (e *Engine) countOldVersions(n int64) {
	e.oldVersions += n
	e.metrics.Load().oldVersions.Add(n)
}

func (e *Engine) addIndexEntries(t *table, row storage.Row, pk int64) {
	for col, ix := range t.indexes {
		ix.Add(row.Get(t.schema, col), pk)
	}
}

func (e *Engine) dropIndexEntries(t *table, row storage.Row, pk int64) {
	for col, ix := range t.indexes {
		ix.Remove(row.Get(t.schema, col), pk)
	}
}

// WALBytes exposes the raw log (diagnostics and tests).
func (e *Engine) WALBytes() []byte { return e.log.Bytes() }

// ---- replication (follower apply) ----

// AppliedLSN is the engine's replication clock: the highest LSN durable in
// its WAL. On a leader it advances with local commits; on a follower, with
// replicated batches (ApplyReplicated). The bounded-staleness guard compares
// it against a client's last-seen commit LSN.
func (e *Engine) AppliedLSN() uint64 { return e.log.DurableLSN() }

// ApplyReplicated applies a chunk of WAL-encoded records received from a
// replication stream. Records at or below the engine's applied LSN are
// skipped, making re-delivery idempotent: batches may overlap after a
// reconnect or a leader retransmit and each LSN still applies exactly once.
// A chunk whose first new record is not the very next LSN is refused with
// ErrReplicationGap and nothing of it is applied: taking it would leave a
// hole that the late chunk, arriving below the new applied LSN, could never
// fill. The surviving suffix is made durable in the local WAL *before* it
// becomes visible to readers — a crash between the two replays it from the
// log, so the follower can never serve a state its own recovery would not
// rebuild. Returns the new applied LSN.
func (e *Engine) ApplyReplicated(raw []byte) (uint64, error) {
	if e.crashed.Load() {
		return 0, ErrConnLost
	}
	applied := e.AppliedLSN()
	suffix, first, last, err := wal.SliceFrom(raw, applied)
	if err != nil {
		return 0, err
	}
	if len(suffix) == 0 {
		return applied, nil
	}
	if first != applied+1 {
		return 0, fmt.Errorf("%w: chunk starts at LSN %d, applied LSN is %d", ErrReplicationGap, first, applied)
	}
	if err := e.log.AppendRaw(suffix, last); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := wal.Replay(suffix, e.applyRecordLocked); err != nil {
		return 0, err
	}
	return last, nil
}

// ---- SSI bookkeeping (Postgres Serializable) ----

// pageKey identifies one SSI tracking unit: a page of an index (or of the
// primary key space) of one table.
type pageKey struct {
	table string
	col   string
	page  int64
}

// pageOf buckets a key value into a page. Integer keys cluster by value —
// adjacent IDs share pages, which is exactly the false-sharing behaviour
// §3.3.2 exploits; other types hash.
func pageOf(v storage.Value) int64 {
	switch x := v.(type) {
	case int64:
		if x < 0 {
			return (x - ssiPageSize + 1) / ssiPageSize
		}
		return x / ssiPageSize
	case string:
		var h int64
		for i := 0; i < len(x); i++ {
			h = h*131 + int64(x[i])
		}
		return h % 1024
	case bool:
		if x {
			return 1
		}
		return 0
	case float64:
		return int64(x) / ssiPageSize
	default:
		return 0
	}
}

// maxRecentFootprints bounds the SSI conflict window. Transactions are
// short-lived in every studied application; a fixed ring is ample, and a
// transaction old enough to fall off the ring would long since have hit a
// first-committer-wins conflict on any contended row.
const maxRecentFootprints = 2048

// noteCommitFootprint records a committed transaction's write pages for
// later SSI checks. Caller holds e.mu.
func (e *Engine) noteCommitFootprint(f commitFootprint) {
	if len(f.writePages) == 0 {
		return
	}
	e.recent = append(e.recent, f)
	if len(e.recent) > maxRecentFootprints {
		e.recent = append(e.recent[:0], e.recent[len(e.recent)-maxRecentFootprints/2:]...)
	}
}
