package engine

import (
	"errors"
	"fmt"

	"adhoctx/internal/lockmgr"
)

// Sentinel errors surfaced to applications. The studied applications branch
// on exactly these conditions (retry on deadlock, retry or fail on
// serialization failure), so they are first-class values.
var (
	// ErrDeadlock is returned when this transaction was chosen as the
	// deadlock victim. The transaction is rolled back.
	ErrDeadlock = errors.New("engine: deadlock; transaction rolled back")
	// ErrSerialization is a snapshot-isolation first-committer-wins or
	// SSI failure (PostgreSQL "could not serialize access"). The
	// transaction is rolled back.
	ErrSerialization = errors.New("engine: could not serialize access; transaction rolled back")
	// ErrLockTimeout is a lock wait timeout. The statement fails; the
	// transaction stays usable (MySQL semantics).
	ErrLockTimeout = errors.New("engine: lock wait timeout exceeded")
	// ErrTxnDone reports use of a committed or rolled-back transaction.
	ErrTxnDone = errors.New("engine: transaction already finished")
	// ErrConnLost models the driver error applications see when the
	// database crashed underneath them (§3.4.2).
	ErrConnLost = errors.New("engine: connection lost (database crashed)")
	// ErrOCCConflict is an optimistic-mode commit validation failure: a
	// transaction committed a conflicting write-set after this
	// transaction's snapshot (first-committer-wins). The transaction is
	// rolled back; retrying with a fresh snapshot is the expected response.
	ErrOCCConflict = errors.New("engine: optimistic validation failed; transaction rolled back")
	// ErrReplicationGap is ApplyReplicated refusing a chunk that does not
	// continue the applied log. The follower drops its stream on it and
	// re-subscribes from its applied LSN, which the leader's catch-up path
	// serves gaplessly.
	ErrReplicationGap = errors.New("engine: replicated chunk leaves an LSN gap")
	// ErrDuplicateKey reports a primary-key collision on insert.
	ErrDuplicateKey = errors.New("engine: duplicate primary key")
	// ErrNoTable reports an unknown table.
	ErrNoTable = errors.New("engine: no such table")
)

// IsRetryable reports whether an application should retry the whole
// transaction: deadlocks, serialization failures, and optimistic
// validation conflicts.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrSerialization) ||
		errors.Is(err, ErrOCCConflict)
}

// mapLockErr converts lock-manager errors into engine errors.
func mapLockErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, lockmgr.ErrDeadlock):
		return ErrDeadlock
	case errors.Is(err, lockmgr.ErrTimeout):
		return ErrLockTimeout
	case errors.Is(err, lockmgr.ErrShutdown):
		return ErrConnLost
	default:
		return fmt.Errorf("engine: lock wait failed: %w", err)
	}
}
