package mvcc

import (
	"fmt"
	"testing"
	"testing/quick"

	"adhoctx/internal/storage"
)

func row(vals ...storage.Value) storage.Row { return storage.Row(vals) }

// committedChain returns a chain holding one version of r, written by txnID
// and committed at csn.
func committedChain(r storage.Row, txnID, csn uint64) *Chain {
	c := &Chain{}
	c.Prepend(r, false, txnID)
	c.Commit(txnID, csn)
	return c
}

func TestVisibilityBasics(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)

	// Older snapshot (before csn 5) sees nothing.
	if got := c.Visible(Snapshot{AsOf: 4, Self: 99}); got != nil {
		t.Fatalf("pre-commit snapshot saw %v", got)
	}
	// At or after csn 5 sees v1.
	if got := c.Visible(Snapshot{AsOf: 5, Self: 99}); got == nil || got[1] != "v1" {
		t.Fatalf("snapshot at 5 saw %v", got)
	}
}

func TestOwnWritesVisibleUncommitted(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)

	// Writer sees its own uncommitted version.
	if got := c.Visible(Snapshot{AsOf: 5, Self: 42}); got == nil || got[1] != "v2" {
		t.Fatalf("writer saw %v", got)
	}
	// Others still see v1.
	if got := c.Visible(Snapshot{AsOf: 5, Self: 7}); got == nil || got[1] != "v1" {
		t.Fatalf("reader saw %v", got)
	}
}

func TestCommitStampsVersions(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	c.Commit(42, 9)

	if got := c.Visible(Snapshot{AsOf: 9, Self: 7}); got == nil || got[1] != "v2" {
		t.Fatalf("post-commit reader saw %v", got)
	}
	if got := c.Visible(Snapshot{AsOf: 8, Self: 7}); got == nil || got[1] != "v1" {
		t.Fatalf("older snapshot saw %v", got)
	}
}

func TestRollbackRestoresPriorVersion(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	if empty := c.Rollback(42); empty {
		t.Fatal("rollback reported empty chain")
	}
	if got := c.Visible(Snapshot{AsOf: 100, Self: 42}); got == nil || got[1] != "v1" {
		t.Fatalf("after rollback saw %v", got)
	}
}

func TestRollbackOnePopsSingleVersion(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	c.Prepend(row(int64(1), "v3"), false, 42)
	if empty := c.RollbackOne(42); empty {
		t.Fatal("chain reported empty")
	}
	// Only v3 is gone; the writer still sees its v2.
	if got := c.Visible(Snapshot{AsOf: 5, Self: 42}); got == nil || got[1] != "v2" {
		t.Fatalf("after RollbackOne saw %v", got)
	}
	// RollbackOne on a committed head is a no-op.
	c.Commit(42, 9)
	if empty := c.RollbackOne(42); empty {
		t.Fatal("committed chain reported empty")
	}
	if got := c.Visible(Snapshot{AsOf: 9, Self: 7}); got == nil || got[1] != "v2" {
		t.Fatalf("committed head disturbed: %v", got)
	}
}

func TestRollbackFreshInsertEmptiesChain(t *testing.T) {
	c := &Chain{}
	c.Prepend(row(int64(1), "v1"), false, 42)
	if empty := c.Rollback(42); !empty {
		t.Fatal("rollback of sole uncommitted insert should empty the chain")
	}
	if c.Head() != nil {
		t.Fatal("head not nil after emptying rollback")
	}
}

func TestTombstoneVisibility(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(nil, true, 42)
	c.Commit(42, 9)

	if got := c.Visible(Snapshot{AsOf: 9, Self: 7}); got != nil {
		t.Fatalf("deleted row visible: %v", got)
	}
	if got := c.Visible(Snapshot{AsOf: 8, Self: 7}); got == nil {
		t.Fatal("old snapshot should still see the row")
	}
	v := c.VisibleVersion(Snapshot{AsOf: 9, Self: 7})
	if v == nil || !v.Deleted {
		t.Fatalf("VisibleVersion should surface the tombstone, got %+v", v)
	}
}

func TestFirstCommitterWinsConflict(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)

	snap := Snapshot{AsOf: 5, Self: 100} // taken before the concurrent commit
	c.Prepend(row(int64(1), "v2"), false, 200)
	c.Commit(200, 8)

	if !c.ConflictsWith(snap) {
		t.Fatal("concurrent committed write should conflict with the old snapshot")
	}
	if c.ConflictsWith(Snapshot{AsOf: 8, Self: 100}) {
		t.Fatal("snapshot taken after the commit should not conflict")
	}
	// A committed version conflicts by its CSN alone: a snapshot whose Self
	// equals the committed writer's ID (a reused ID, say, on a follower) is
	// no exception.
	if !c.ConflictsWith(Snapshot{AsOf: 5, Self: 200}) {
		t.Fatal("a reader sharing the committed writer's ID escaped first-committer-wins")
	}
}

// TestCommittedVersionsVisibleByCSNOnly: own-write visibility covers
// uncommitted versions only. A reader whose ID matches a version's writer —
// IDs collide across a leader and its follower — sees a committed version
// only if its snapshot is at or past the version's CSN.
func TestCommittedVersionsVisibleByCSNOnly(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	c.Commit(42, 9)
	if got := c.Visible(Snapshot{AsOf: 5, Self: 42}); got == nil || got[1] != "v1" {
		t.Fatalf("snapshot at 5 with Self 42 saw %v, want v1", got)
	}
}

// TestPrune: the versions kept are the uncommitted ones, every committed one
// above the watermark and the newest at or below it; the rest come back as
// the unlinked list.
func TestPrune(t *testing.T) {
	for _, tc := range []struct {
		name      string
		chain     []ver // oldest first
		watermark uint64
		kept      []uint64 // CSNs left on the chain, newest first
		unlinked  []uint64 // CSNs returned, newest first
		tombstone bool     // the only survivor is a committed tombstone
	}{
		{name: "single version", chain: []ver{{1, 5, false}}, watermark: 9, kept: []uint64{5}},
		{name: "newest at or below watermark stays",
			chain: []ver{{1, 2, false}, {2, 4, false}, {3, 6, false}}, watermark: 6,
			kept: []uint64{6}, unlinked: []uint64{4, 2}},
		{name: "versions above watermark stay",
			chain: []ver{{1, 2, false}, {2, 4, false}, {3, 6, false}, {4, 8, false}}, watermark: 5,
			kept: []uint64{8, 6, 4}, unlinked: []uint64{2}},
		{name: "watermark below every version",
			chain: []ver{{1, 4, false}, {2, 6, false}}, watermark: 3, kept: []uint64{6, 4}},
		{name: "uncommitted head stays",
			chain: []ver{{1, 2, false}, {2, 4, false}, {3, 0, false}}, watermark: 9,
			kept: []uint64{0, 4}, unlinked: []uint64{2}},
		{name: "uncommitted head over versions above watermark",
			chain: []ver{{1, 2, false}, {2, 7, false}, {3, 0, false}}, watermark: 5,
			kept: []uint64{0, 7, 2}},
		{name: "only a tombstone survives",
			chain: []ver{{1, 2, false}, {2, 4, false}, {3, 6, true}}, watermark: 6,
			kept: []uint64{6}, unlinked: []uint64{4, 2}, tombstone: true},
		{name: "tombstone above watermark keeps the row it deleted",
			chain: []ver{{1, 2, false}, {2, 4, false}, {3, 6, true}}, watermark: 5,
			kept: []uint64{6, 4}, unlinked: []uint64{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Chain{}
			for _, v := range tc.chain {
				var r storage.Row
				if !v.deleted {
					r = row(int64(1), v.txn)
				}
				c.Prepend(r, v.deleted, v.txn)
				if v.csn != 0 {
					c.Commit(v.txn, v.csn)
				}
			}
			var unlinked []uint64
			for v := c.Prune(tc.watermark); v != nil; v = v.Prev {
				unlinked = append(unlinked, v.CSN)
			}
			var kept []uint64
			for v := c.Head(); v != nil; v = v.Prev {
				kept = append(kept, v.CSN)
			}
			if fmt.Sprint(kept) != fmt.Sprint(tc.kept) || fmt.Sprint(unlinked) != fmt.Sprint(tc.unlinked) {
				t.Fatalf("kept %v, unlinked %v; want %v, %v", kept, unlinked, tc.kept, tc.unlinked)
			}
			h := c.Head()
			if got := h.Prev == nil && h.Deleted && h.CSN != 0; got != tc.tombstone {
				t.Fatalf("only a committed tombstone left = %v, want %v", got, tc.tombstone)
			}
			// Every snapshot at or past the watermark still resolves.
			for asOf := tc.watermark; asOf <= 10; asOf++ {
				snap := Snapshot{AsOf: asOf, Self: 99}
				want := uncut(tc.chain, asOf)
				if got := c.VisibleVersion(snap); (got == nil) != (want == 0) || (got != nil && got.CSN != want) {
					t.Fatalf("snapshot at %d resolves to %+v after the prune, want CSN %d", asOf, got, want)
				}
			}
		})
	}
}

// ver is one version of a TestPrune chain.
type ver struct {
	txn, csn uint64 // csn 0 = uncommitted
	deleted  bool
}

// uncut is the CSN a snapshot at asOf resolves to on the unpruned chain (0
// for none).
func uncut(chain []ver, asOf uint64) uint64 {
	var best uint64
	for _, v := range chain {
		if v.csn != 0 && v.csn <= asOf && v.csn > best {
			best = v.csn
		}
	}
	return best
}

func TestPrependPanicsOnWriteWriteRace(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	defer func() {
		if recover() == nil {
			t.Fatal("second uncommitted writer did not panic")
		}
	}()
	c.Prepend(row(int64(1), "v3"), false, 43)
}

func TestLatestCommittedSkipsUncommitted(t *testing.T) {
	c := committedChain(row(int64(1), "v1"), 10, 5)
	c.Prepend(row(int64(1), "v2"), false, 42)
	lc := c.LatestCommitted()
	if lc == nil || lc.Row[1] != "v1" {
		t.Fatalf("LatestCommitted = %+v", lc)
	}
	if c.Depth() != 2 {
		t.Fatalf("Depth = %d", c.Depth())
	}
}

// TestVisibilityMonotoneProperty: raising AsOf never makes a previously
// visible row invisible (until a tombstone commits), and the visible version
// is always the newest one with CSN ≤ AsOf.
func TestVisibilityMonotoneProperty(t *testing.T) {
	f := func(nWrites uint8) bool {
		n := int(nWrites%10) + 1
		c := committedChain(row(int64(0)), 1, 1)
		// Commit n sequential updates at CSNs 2..n+1.
		for i := 0; i < n; i++ {
			txn := uint64(100 + i)
			c.Prepend(row(int64(i+1)), false, txn)
			c.Commit(txn, uint64(i+2))
		}
		for asOf := uint64(1); asOf <= uint64(n+1); asOf++ {
			got := c.Visible(Snapshot{AsOf: asOf, Self: 9999})
			if got == nil {
				return false
			}
			want := int64(asOf - 1)
			if got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
