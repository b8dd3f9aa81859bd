package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adhoctx/internal/sched"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
	"adhoctx/internal/wal"
)

// ---- mode parity: what a committed write leaves behind ----

func parityEngine(mode Mode) *Engine {
	e := New(Config{Dialect: Postgres, Mode: mode})
	e.CreateTable(storage.NewSchema("items",
		storage.Column{Name: "grp", Type: storage.TInt},
		storage.Column{Name: "qty", Type: storage.TInt},
	), "grp")
	return e
}

func item(grp, qty int64) map[string]storage.Value {
	return map[string]storage.Value{"grp": grp, "qty": qty}
}

// parityPrograms are serial programs — each entry of txns is one transaction
// — run after a seed transaction that inserts items 1 (grp 10) and 2
// (grp 20). keys are the index keys to look up afterwards: every value the
// grp column held or holds.
var parityPrograms = []struct {
	name string
	txns []func(*Txn) error
	keys []int64
}{
	{"insert", []func(*Txn) error{func(tx *Txn) error {
		_, err := tx.Insert("items", item(30, 3))
		return err
	}}, []int64{30}},
	{"update of the indexed column", []func(*Txn) error{func(tx *Txn) error {
		_, err := tx.Update("items", storage.ByPK(1), map[string]storage.Value{"grp": int64(11)})
		return err
	}}, []int64{10, 11}},
	{"delta update", []func(*Txn) error{func(tx *Txn) error {
		_, err := tx.Update("items", storage.ByPK(2), map[string]storage.Value{"qty": storage.Delta{N: 5}})
		return err
	}}, []int64{20}},
	{"delete", []func(*Txn) error{func(tx *Txn) error {
		_, err := tx.Delete("items", storage.ByPK(2))
		return err
	}}, []int64{20}},
	{"insert then delete", []func(*Txn) error{func(tx *Txn) error {
		pk, err := tx.Insert("items", item(30, 3))
		if err != nil {
			return err
		}
		_, err = tx.Delete("items", storage.ByPK(pk))
		return err
	}}, []int64{30}},
	{"insert then update", []func(*Txn) error{func(tx *Txn) error {
		pk, err := tx.Insert("items", item(30, 3))
		if err != nil {
			return err
		}
		_, err = tx.Update("items", storage.ByPK(pk), map[string]storage.Value{"grp": int64(31)})
		return err
	}}, []int64{30, 31}},
	{"update then delete", []func(*Txn) error{func(tx *Txn) error {
		if _, err := tx.Update("items", storage.ByPK(1), map[string]storage.Value{"grp": int64(11)}); err != nil {
			return err
		}
		_, err := tx.Delete("items", storage.ByPK(1))
		return err
	}}, []int64{10, 11}},
	{"explicit-pk insert over a deleted row", []func(*Txn) error{func(tx *Txn) error {
		_, err := tx.Delete("items", storage.ByPK(2))
		return err
	}, func(tx *Txn) error {
		vals := item(21, 9)
		vals[storage.PKColumn] = int64(2)
		_, err := tx.Insert("items", vals)
		return err
	}}, []int64{20, 21}},
}

// parityState is everything a run leaves that the other mode must match.
type parityState struct {
	Snapshot []byte
	Lookups  []string // per key: the rows an index probe of grp returns
	WAL      []string // net effect of every record, see netOps
}

func captureParity(t *testing.T, e *Engine, keys []int64) parityState {
	t.Helper()
	snap, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := parityState{Snapshot: snap, WAL: netOps(t, e.WALBytes())}
	// Both engines are read through the same (2PL snapshot) read path, so a
	// difference is a difference in the index and chains, not in the reader.
	err = e.RunMode(Mode2PL, IsolationDefault, func(tx *Txn) error {
		for _, k := range keys {
			rows, err := tx.Select("items", storage.Eq{Col: "grp", Val: k})
			if err != nil {
				return err
			}
			st.Lookups = append(st.Lookups, fmt.Sprintf("grp=%d: %v", k, rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// netOps reduces a log to what each record does to each row. A 2PL
// transaction logs every statement's write, an OCC transaction the final
// image of each row it buffered, so the literal op lists differ whenever one
// transaction writes a row twice; what recovery replays out of them must
// not. Per record and row, in first-touch order: the last image, as an
// insert if the record created the row, and nothing at all for a row the
// record both created and deleted.
func netOps(t *testing.T, raw []byte) []string {
	t.Helper()
	recs, err := wal.Records(raw)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range recs {
		first, last := map[int64]wal.Op{}, map[int64]wal.Op{}
		var order []int64
		for _, op := range rec.Ops {
			if _, seen := first[op.PK]; !seen {
				first[op.PK] = op
				order = append(order, op.PK)
			}
			last[op.PK] = op
		}
		for _, pk := range order {
			kind := last[pk].Kind
			if first[pk].Kind == wal.OpInsert {
				if kind == wal.OpDelete {
					continue
				}
				kind = wal.OpInsert
			}
			out = append(out, fmt.Sprintf("txn %d: %v %s/%d %v", rec.TxnID, kind, last[pk].Table, pk, last[pk].Row))
		}
	}
	return out
}

// TestModeParity: the two execution modes differ in how they coordinate, not
// in what a committed write leaves behind. The same serial program under
// Mode2PL and ModeOCC must leave byte-identical checkpoints, the same index
// lookups for old and new keys and the same net WAL contents — and the same
// again once each engine has crashed and recovered from its own log. The
// 500-seed equivalence test covers concurrent updates on an unindexed table;
// this covers the insert, delete and index paths, serially.
func TestModeParity(t *testing.T) {
	for _, p := range parityPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			var live, recovered [2]parityState
			for i, mode := range []Mode{Mode2PL, ModeOCC} {
				e := parityEngine(mode)
				seed := func(tx *Txn) error {
					for _, it := range [][2]int64{{10, 1}, {20, 2}} {
						if _, err := tx.Insert("items", item(it[0], it[1])); err != nil {
							return err
						}
					}
					return nil
				}
				for _, fn := range append([]func(*Txn) error{seed}, p.txns...) {
					if err := e.Run(IsolationDefault, fn); err != nil {
						t.Fatalf("%v: %v", mode, err)
					}
				}
				live[i] = captureParity(t, e, p.keys)
				e.Crash()
				if err := e.Recover(); err != nil {
					t.Fatalf("%v: recover: %v", mode, err)
				}
				recovered[i] = captureParity(t, e, p.keys)
				if !reflect.DeepEqual(recovered[i].Lookups, live[i].Lookups) {
					t.Errorf("%v: lookups changed across recovery:\n live      %v\n recovered %v",
						mode, live[i].Lookups, recovered[i].Lookups)
				}
			}
			for _, c := range []struct {
				when string
				s    [2]parityState
			}{{"live", live}, {"recovered", recovered}} {
				if !bytes.Equal(c.s[0].Snapshot, c.s[1].Snapshot) {
					t.Errorf("%s: Snapshot() differs between modes", c.when)
				}
				if !reflect.DeepEqual(c.s[0].Lookups, c.s[1].Lookups) {
					t.Errorf("%s: index lookups differ:\n 2pl %v\n occ %v", c.when, c.s[0].Lookups, c.s[1].Lookups)
				}
				if !reflect.DeepEqual(c.s[0].WAL, c.s[1].WAL) {
					t.Errorf("%s: WAL differs:\n 2pl %v\n occ %v", c.when, c.s[0].WAL, c.s[1].WAL)
				}
			}
		})
	}
}

// ---- commit-path shape: the schedule points a commit passes ----

// commitTrace runs prog as the only task of a recording schedule controller
// and returns the steps from the last engine/commit point on: every
// scheduling point the commit under test passed, and — because the crash
// plan turns each visited crash point into a branch decision — every crash
// check it made, in order.
func commitTrace(t *testing.T, prog func(e *Engine) error) []string {
	t.Helper()
	plan := &sim.CrashPlan{}
	plan.ExploreCrashes(CrashPointOCCValidate, CrashPointOCCCommit,
		wal.CrashPointBeforeFsync, wal.CrashPointAfterFsync, wal.CrashPointShipBefore, wal.CrashPointShipAfter)
	e := New(Config{Crash: plan})
	e.CreateTable(storage.NewSchema("skus", storage.Column{Name: "quantity", Type: storage.TInt}))
	mustInsert(t, e, "skus", qty(5))

	c := sched.NewController(sched.Config{Strategy: &sched.Replay{}, PreemptionBound: -1})
	c.Go("prog", func() error { return prog(e) })
	res := c.Run()
	if err := res.Errs["prog"]; err != nil || res.Stuck || res.Truncated {
		t.Fatalf("run: err=%v stuck=%v truncated=%v", err, res.Stuck, res.Truncated)
	}
	var out []string
	for _, s := range res.Steps {
		if s.Label == "engine/commit" {
			out = out[:0]
		}
		if s.Branch {
			out = append(out, fmt.Sprintf("%s := %d", s.Label, s.Val))
		} else {
			out = append(out, s.Label)
		}
	}
	return out
}

// TestCommitPathShape pins the exact sequence of schedule points and crash
// checks on each commit path. Schedule IDs committed in tests, EXPERIMENTS.md
// and replay command lines encode these sequences pick by pick: an edit to
// the shared commit tail that adds, drops or reorders one silently re-deals
// every ID, and must show up here first.
func TestCommitPathShape(t *testing.T) {
	validate := []string{"engine/commit", "engine/occ/validate",
		"crash/" + CrashPointOCCValidate, "crash/" + CrashPointOCCValidate + " := 0"}
	update := func(tx *Txn) error {
		_, err := tx.Update("skus", storage.ByPK(1), qty(4))
		return err
	}
	cases := []struct {
		name string
		prog func(e *Engine) error
		want []string
	}{
		{"2pl commit", func(e *Engine) error {
			return e.RunMode(Mode2PL, IsolationDefault, update)
		}, []string{"engine/commit", "lockmgr/releaseall"}},
		{"occ read-only commit", func(e *Engine) error {
			return e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
				_, err := tx.SelectOne("skus", storage.ByPK(1))
				return err
			})
		}, []string{"engine/commit", "lockmgr/releaseall"}},
		{"occ write commit", func(e *Engine) error {
			return e.RunMode(ModeOCC, IsolationDefault, update)
		}, append(append([]string{}, validate...), "lockmgr/releaseall", "engine/occ/commit",
			"crash/"+CrashPointOCCCommit, "crash/"+CrashPointOCCCommit+" := 0")},
		{"occ validation abort", func(e *Engine) error {
			late := e.BeginMode(ModeOCC, IsolationDefault)
			if err := update(late); err != nil {
				return err
			}
			if err := e.RunMode(ModeOCC, IsolationDefault, update); err != nil {
				return err
			}
			if err := late.Commit(); !errors.Is(err, ErrOCCConflict) {
				return fmt.Errorf("late commit = %v, want ErrOCCConflict", err)
			}
			return nil
		}, append(append([]string{}, validate...), "lockmgr/releaseall")},
		{"occ row-lock probe abort", func(e *Engine) error {
			holder := e.BeginMode(Mode2PL, IsolationDefault)
			if _, err := holder.SelectOne("skus", storage.ByPK(1), ForUpdate); err != nil {
				return err
			}
			if err := e.RunMode(ModeOCC, IsolationDefault, update); !errors.Is(err, ErrOCCConflict) {
				return fmt.Errorf("commit under a held row lock = %v, want ErrOCCConflict", err)
			}
			return nil // the probe's explicit release, then rollbackState's
		}, append(append([]string{}, validate...), "lockmgr/releaseall", "lockmgr/releaseall")},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := commitTrace(t, c.prog); !reflect.DeepEqual(got, c.want) {
				t.Errorf("commit path re-dealt:\n got  %q\n want %q", got, c.want)
			}
		})
	}
}
