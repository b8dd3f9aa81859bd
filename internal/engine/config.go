package engine

import (
	"time"

	"adhoctx/internal/sim"
	"adhoctx/internal/wal"
)

// Isolation is a transaction isolation level.
type Isolation int

// Isolation levels. IsolationDefault resolves to the dialect's default —
// the paper notes most web applications run at the default (§2.1): MySQL
// defaults to Repeatable Read, PostgreSQL to Read Committed.
const (
	IsolationDefault Isolation = iota
	ReadCommitted
	RepeatableRead
	Serializable
)

// String implements fmt.Stringer.
func (i Isolation) String() string {
	switch i {
	case IsolationDefault:
		return "DEFAULT"
	case ReadCommitted:
		return "READ COMMITTED"
	case RepeatableRead:
		return "REPEATABLE READ"
	case Serializable:
		return "SERIALIZABLE"
	default:
		return "Isolation(?)"
	}
}

// Mode selects the engine's concurrency-control execution mode.
type Mode int

// Execution modes.
const (
	// Mode2PL is pessimistic two-phase locking over MVCC — the behaviour of
	// the studied MySQL/PostgreSQL deployments. The default.
	Mode2PL Mode = iota
	// ModeOCC is optimistic concurrency control: statements read a pinned
	// begin-timestamp MVCC snapshot under the store latch's shared mode
	// (no lock-manager calls), writes buffer locally, and commit runs
	// backward validation (read-set vs write-sets committed after the
	// snapshot, first-committer-wins). Validation failure surfaces as the
	// retryable ErrOCCConflict. See DESIGN.md §10.
	ModeOCC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeOCC {
		return "occ"
	}
	return "2pl"
}

// DialectKind selects which real system's concurrency-control behaviour the
// engine mimics.
type DialectKind int

// Supported dialects.
const (
	// MySQL: single-master 2PL writes over MVCC consistent reads.
	// Repeatable Read default; plain SELECT is a snapshot read (no locks)
	// below Serializable, a shared locking read at Serializable; locking
	// reads and writes on secondary-index predicates take gap locks at
	// Repeatable Read and above; deadlocks abort the requester.
	MySQL DialectKind = iota
	// Postgres: MVCC snapshots. Read Committed default (statement
	// snapshots); Repeatable Read is Snapshot Isolation with
	// first-committer-wins aborts; Serializable adds SSI-style predicate
	// read tracking at index-page granularity (false sharing included —
	// that's the point of §3.3.2).
	Postgres
)

// String implements fmt.Stringer.
func (d DialectKind) String() string {
	if d == MySQL {
		return "mysql"
	}
	return "postgres"
}

// DefaultIsolation returns the dialect's default isolation level.
func (d DialectKind) DefaultIsolation() Isolation {
	if d == MySQL {
		return RepeatableRead
	}
	return ReadCommitted
}

// Config configures an Engine.
type Config struct {
	// Dialect selects MySQL- or PostgreSQL-like behaviour.
	Dialect DialectKind
	// Mode is the default execution mode for Begin (BeginMode overrides it
	// per transaction). The zero value is Mode2PL.
	Mode Mode
	// Net is charged one round trip per statement (client/server hop).
	Net sim.Latency
	// WALFsync is the latency profile charged per durable commit. The WAL
	// owns the charge: flushes serialize like a single log device, so
	// concurrent per-commit flushing queues unless GroupCommit is on.
	WALFsync sim.Latency
	// GroupCommit coalesces concurrent commits into WAL batches that share
	// one fsync (see internal/wal). Recovery semantics are unchanged.
	GroupCommit bool
	// LockShards partitions the lock manager's lock tables (0 = lockmgr
	// default; 1 = the old single-mutex behaviour).
	LockShards int
	// Crash, when non-nil, arms the engine-internal crash points (today:
	// the WAL group-commit flush). Server-side points live in
	// server.Config.Crash; chaos runs share one plan across both.
	Crash *sim.CrashPlan
	// LockTimeout bounds lock waits (0 = wait forever).
	LockTimeout time.Duration
	// WALDevice, when non-nil, is the durable medium under the WAL — a
	// *disk.Store for a real on-disk log. Nil keeps the simulated device
	// (in-memory durable image, WALFsync-priced syncs).
	WALDevice wal.Device
}

// ssiPageSize groups index keys into pages for Serializable predicate read
// tracking under the Postgres dialect. Real SSI tracks SIREAD locks at page
// granularity, which manufactures false conflicts between adjacent keys.
const ssiPageSize int64 = 8
