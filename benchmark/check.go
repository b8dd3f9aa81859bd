package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/storage"
)

// verdicts lists the output checks a window ran and the ones that failed.
type verdicts struct {
	ran    []string
	failed []string
}

func (v *verdicts) check(name string, ok bool, format string, args ...any) {
	v.ran = append(v.ran, name)
	if !ok {
		v.fail(name, format, args...)
	}
}

func (v *verdicts) fail(name, format string, args ...any) {
	v.failed = append(v.failed, name+": "+fmt.Sprintf(format, args...))
}

// state is the committed contents of both tables, rows in primary-key order.
type state map[string][]storage.Row

func dump(eng *engine.Engine) (state, error) {
	out := make(state)
	err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
		for _, table := range []string{"accounts", "orders"} {
			rows, err := t.Select(table, storage.All{})
			if err != nil {
				return err
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].PK() < rows[j].PK() })
			out[table] = rows
		}
		return nil
	})
	return out, err
}

// diff describes up to three rows on which two states disagree, or "".
func diff(want, got state) string {
	var out []string
	for _, table := range []string{"accounts", "orders"} {
		a, b := want[table], got[table]
		if len(a) != len(b) {
			out = append(out, fmt.Sprintf("%s: %d rows vs %d", table, len(a), len(b)))
		}
		for i := 0; i < min(len(a), len(b)) && len(out) < 3; i++ {
			if !reflect.DeepEqual(a[i][:3], b[i][:3]) { // id and the integer columns; pad never changes
				out = append(out, fmt.Sprintf("%s: %v vs %v", table, a[i][:3], b[i][:3]))
			}
		}
	}
	if len(out) == 0 {
		return ""
	}
	return fmt.Sprint(out)
}

// verify stops the stack and checks the window's outputs: the workload's
// invariant on the live leader, no lock left held, follower equal to leader,
// and a cold re-open of the data directory equal to the live leader with
// every client's last acknowledged commit in it. This is clean-restart
// equivalence; discarding unflushed bytes stays with `adhocchaos -restart`.
func (r *windowResult) verify(st *stack, w workload, drivers []*driver, committed int64) {
	v := &r.checks
	if err := st.cl.Close(); err != nil {
		v.fail("client closes", "%v", err)
	}
	if err := st.srv.Close(); err != nil {
		v.fail("server drains", "%v", err)
	}
	held := st.eng.LockManager().HeldCount()
	v.check("no lock held after drain", held == 0, "%d locks still held", held)
	r.layer["lockmgr.held_after"] = float64(held)

	live, err := dump(st.eng)
	if err != nil {
		v.fail("live state readable", "%v", err)
		return
	}
	var balance int64
	for _, row := range live["accounts"] {
		balance += row[balanceCol].(int64)
	}
	sold := int64(accountRows)*initialBalance - balance
	orders := int64(len(live["orders"]))
	if w.name == "hot_occ" {
		v.check("stock decrements = orders = committed checkouts", sold == orders && orders == committed,
			"stock fell by %d, %d orders, %d checkouts committed", sold, orders, committed)
	} else {
		v.check("balance sum conserved", sold == 0 && orders == 0, "balances off by %d, %d stray orders", -sold, orders)
	}

	if w.replicated {
		r.layer["repl.lag_lsn_end"] = float64(st.eng.AppliedLSN() - st.fol.AppliedLSN())
		r.layer["repl.degrades"] = float64(st.leader.Degrades())
		if err := st.waitFollower(2 * time.Second); err != nil {
			v.fail("follower caught up", "%v", err)
		}
		folState, err := dump(st.folEng)
		d := ""
		if err == nil {
			d = diff(live, folState)
		}
		v.check("follower = live leader", err == nil && d == "", "%v %s", err, d)
	}

	r.layer["wal.resident_bytes_end"] = float64(st.eng.WAL().Len())
	r.layer["disk.segments_end"] = float64(len(st.store.Segments()))
	if err := st.close(); err != nil {
		v.fail("stack closes", "%v", err)
	}

	t0 := time.Now()
	store, rec, err := disk.Open(filepath.Join(st.dir, "leader"), disk.Options{})
	if err != nil {
		v.fail("data directory re-opens", "%v", err)
		return
	}
	defer store.Close()
	t1 := time.Now()
	cold := newEngine(store)
	err = cold.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN)
	r.layer["disk.recover_ms"] = float64(t1.Sub(t0)) / 1e6
	r.layer["engine.load_recovered_ms"] = float64(time.Since(t1)) / 1e6
	if err != nil {
		v.fail("recovered state loads", "%v", err)
		return
	}
	coldState, err := dump(cold)
	d := ""
	if err == nil {
		d = diff(live, coldState)
	}
	v.check("cold re-open = live leader", err == nil && d == "", "%v %s", err, d)
	for _, dr := range drivers {
		v.check("last acked commit recovered", rec.LastLSN >= dr.lastLSN,
			"client %d was acked LSN %d, directory recovers to %d", dr.gen.client, dr.lastLSN, rec.LastLSN)
	}
}
