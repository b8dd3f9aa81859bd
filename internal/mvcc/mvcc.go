// Package mvcc provides multi-version row storage: per-row version chains
// stamped with transaction IDs and commit sequence numbers, plus snapshot
// visibility. Both engine dialects read through snapshots — MySQL's
// "consistent reads" and PostgreSQL's MVCC are the same machinery with
// different snapshot lifetimes and write-conflict policies (see
// internal/engine).
//
// A chain holds, newest first, the uncommitted versions of at most one
// transaction (the row's X-lock holder) above committed versions in commit
// order. A version reaches a chain one way, Prepend, and leaves it one way:
// Prune, given a watermark no live snapshot reads below, unlinks every
// committed version older than the one a snapshot at the watermark resolves
// to (Rollback and RollbackOne undo an uncommitted version). Own-write
// visibility covers uncommitted versions only: once committed, a version is
// visible by its CSN alone, whatever transaction ID a reader carries.
//
// Chains are not internally synchronised; the engine serialises chain access
// under its store mutex.
package mvcc

import (
	"fmt"

	"adhoctx/internal/storage"
)

// Version is one row version. A nil Row with Deleted=true is a tombstone.
type Version struct {
	// Row is the version's data (nil for tombstones).
	Row storage.Row
	// Deleted marks tombstones.
	Deleted bool
	// TxnID is the transaction that wrote the version.
	TxnID uint64
	// CSN is the writer's commit sequence number, or 0 while uncommitted.
	CSN uint64
	// Prev is the next older version.
	Prev *Version
}

// Snapshot fixes what a reader sees: every version committed with CSN ≤ AsOf
// plus the reader's own uncommitted writes.
type Snapshot struct {
	// AsOf is the newest commit sequence number visible to the snapshot.
	AsOf uint64
	// Self is the reading transaction's ID; its own uncommitted writes are
	// visible.
	Self uint64
}

// Chain is one row's version history, newest first.
type Chain struct {
	head *Version
}

// Head returns the newest version (committed or not), or nil on an empty
// chain.
func (c *Chain) Head() *Version { return c.head }

// Prepend installs a new uncommitted version written by txnID. The engine
// must hold the row's X lock, so at most one uncommitted version exists per
// chain at a time; Prepend panics if that invariant is violated.
func (c *Chain) Prepend(row storage.Row, deleted bool, txnID uint64) *Version {
	if c.head != nil && c.head.CSN == 0 && c.head.TxnID != txnID {
		panic(fmt.Sprintf("mvcc: write-write race on chain: txn %d over uncommitted txn %d", txnID, c.head.TxnID))
	}
	v := &Version{Row: row, Deleted: deleted, TxnID: txnID, Prev: c.head}
	c.head = v
	return v
}

// Visible returns the newest version visible to snap, or nil when the row
// does not exist for this snapshot (never inserted, or only newer versions).
// A visible tombstone also returns nil — from the reader's viewpoint the row
// is gone; use VisibleVersion when the tombstone itself matters.
func (c *Chain) Visible(snap Snapshot) storage.Row {
	v := c.VisibleVersion(snap)
	if v == nil || v.Deleted {
		return nil
	}
	return v.Row
}

// VisibleVersion returns the newest version visible to snap including
// tombstones, or nil.
func (c *Chain) VisibleVersion(snap Snapshot) *Version {
	for v := c.head; v != nil; v = v.Prev {
		if v.visibleTo(snap) {
			return v
		}
	}
	return nil
}

func (v *Version) visibleTo(snap Snapshot) bool {
	if v.CSN == 0 {
		return v.TxnID == snap.Self
	}
	return v.CSN <= snap.AsOf
}

// LatestCommitted returns the newest committed version, or nil.
func (c *Chain) LatestCommitted() *Version {
	for v := c.head; v != nil; v = v.Prev {
		if v.CSN != 0 {
			return v
		}
	}
	return nil
}

// Commit stamps every uncommitted version written by txnID with csn.
func (c *Chain) Commit(txnID, csn uint64) {
	for v := c.head; v != nil && v.CSN == 0; v = v.Prev {
		if v.TxnID == txnID {
			v.CSN = csn
		}
	}
}

// Rollback removes uncommitted versions written by txnID from the head of
// the chain and reports whether the chain is now empty (the row never
// existed committed — the engine unlinks it).
func (c *Chain) Rollback(txnID uint64) (empty bool) {
	for c.head != nil && c.head.CSN == 0 && c.head.TxnID == txnID {
		c.head = c.head.Prev
	}
	return c.head == nil
}

// RollbackOne removes exactly the head version if it is an uncommitted write
// by txnID, reporting whether the chain is now empty. The engine unwinds its
// undo log one entry at a time (savepoints roll back a suffix of the
// transaction's writes, not all of them), so it needs single-step pops.
func (c *Chain) RollbackOne(txnID uint64) (empty bool) {
	if c.head != nil && c.head.CSN == 0 && c.head.TxnID == txnID {
		c.head = c.head.Prev
	}
	return c.head == nil
}

// ConflictsWith reports whether a write by a transaction holding snap would
// violate first-committer-wins: another transaction committed a newer version
// after the snapshot was taken (a live transaction has no committed version
// of its own). PostgreSQL's Repeatable Read aborts such writers with a
// serialization failure (§3.1.1).
func (c *Chain) ConflictsWith(snap Snapshot) bool {
	latest := c.LatestCommitted()
	return latest != nil && latest.CSN > snap.AsOf
}

// Prune unlinks the versions no snapshot reading at watermark or later can
// reach and returns them, newest first and linked through Prev (nil when
// nothing was unlinked). Walking from the head it keeps every uncommitted
// version, every committed version above the watermark, and the first
// committed version at or below it — the one a snapshot at the watermark
// resolves to — and cuts the chain after that one.
func (c *Chain) Prune(watermark uint64) (unlinked *Version) {
	for v := c.head; v != nil; v = v.Prev {
		if v.CSN != 0 && v.CSN <= watermark {
			unlinked, v.Prev = v.Prev, nil
			return unlinked
		}
	}
	return nil
}

// Depth returns the number of versions in the chain (diagnostics).
func (c *Chain) Depth() int {
	n := 0
	for v := c.head; v != nil; v = v.Prev {
		n++
	}
	return n
}
