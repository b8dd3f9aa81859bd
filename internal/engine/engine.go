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

// currentCSN reads the commit clock under mu.
func (e *Engine) currentCSN() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.csn
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
	for _, op := range rec.Ops {
		t, ok := e.tables[op.Table]
		if !ok {
			return fmt.Errorf("engine: replay references unknown table %q", op.Table)
		}
		switch op.Kind {
		case wal.OpInsert, wal.OpUpdate:
			e.applyRedoWrite(t, op.PK, op.Row, rec.TxnID, rec.LSN)
		case wal.OpDelete:
			if ch, ok := t.rows[op.PK]; ok {
				old := ch.Head()
				if old != nil && old.Row != nil {
					e.dropIndexEntries(t, old.Row, op.PK)
				}
			}
			delete(t.rows, op.PK)
		}
	}
	if rec.LSN > e.csn {
		e.csn = rec.LSN
	}
	// Recovered transaction IDs must stay retired: a new transaction that
	// reused one would mistake the recovered version for its own write.
	for {
		cur := e.nextTxn.Load()
		if rec.TxnID <= cur || e.nextTxn.CompareAndSwap(cur, rec.TxnID) {
			break
		}
	}
	return nil
}

func (e *Engine) applyRedoWrite(t *table, pk int64, row storage.Row, txnID, lsn uint64) {
	if ch, ok := t.rows[pk]; ok {
		old := ch.Head()
		if old != nil && old.Row != nil {
			e.dropIndexEntries(t, old.Row, pk)
		}
	}
	t.rows[pk] = mvcc.NewChain(row.Clone(), txnID, lsn)
	e.addIndexEntries(t, row, pk)
	if pk > t.autoInc {
		t.autoInc = pk
	}
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
