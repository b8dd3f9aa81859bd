package engine

import (
	"errors"
	"testing"
	"time"

	"adhoctx/internal/obs"
	"adhoctx/internal/storage"
)

// counterEvent is one countable engine event: how to read it from Stats, the
// registry series it appears under, and a program that makes it happen
// exactly once (other counters may move too) on an engine holding row 1.
type counterEvent struct {
	name        string
	series      string
	stat        func(StatsSnapshot) int64
	dialect     DialectKind
	lockTimeout time.Duration // 0 = 5s, long enough never to fire
	provoke     func(t *testing.T, e *Engine)
}

func qty(n int64) map[string]storage.Value { return map[string]storage.Value{"quantity": n} }

var counterEvents = []counterEvent{
	{name: "begin", series: "engine_begins_total",
		stat: func(s StatsSnapshot) int64 { return s.Begins },
		provoke: func(t *testing.T, e *Engine) {
			if err := e.Begin(IsolationDefault).Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "statement", series: "engine_statements_total",
		stat: func(s StatsSnapshot) int64 { return s.Statements },
		provoke: func(t *testing.T, e *Engine) {
			err := e.Run(IsolationDefault, func(tx *Txn) error {
				_, err := tx.SelectOne("skus", storage.ByPK(1))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
	{name: "commit", series: "engine_commits_total",
		stat: func(s StatsSnapshot) int64 { return s.Commits },
		provoke: func(t *testing.T, e *Engine) {
			if err := e.Begin(IsolationDefault).Commit(); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "rollback", series: "engine_rollbacks_total",
		stat: func(s StatsSnapshot) int64 { return s.Rollbacks },
		provoke: func(t *testing.T, e *Engine) {
			if err := e.Begin(IsolationDefault).Rollback(); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "deadlock", series: "engine_deadlocks_total",
		stat: func(s StatsSnapshot) int64 { return s.Deadlocks },
		provoke: func(t *testing.T, e *Engine) {
			// §3.3.1: two Serializable RMWs hold S and both want X. Whichever
			// asks second closes the cycle and is the one victim.
			txs := [2]*Txn{e.Begin(Serializable), e.Begin(Serializable)}
			for _, tx := range txs {
				if _, err := tx.SelectOne("skus", storage.ByPK(1)); err != nil {
					t.Fatal(err)
				}
			}
			errs := make(chan error, 2)
			for _, tx := range txs {
				go func(tx *Txn) {
					_, err := tx.Update("skus", storage.ByPK(1), qty(4))
					if err == nil {
						err = tx.Commit()
					}
					errs <- err
				}(tx)
			}
			e1, e2 := <-errs, <-errs
			if errors.Is(e1, ErrDeadlock) == errors.Is(e2, ErrDeadlock) || (e1 != nil && e2 != nil) {
				t.Fatalf("want one victim and one survivor, got %v / %v", e1, e2)
			}
		}},
	{name: "lock timeout", series: "engine_lock_timeouts_total", lockTimeout: 20 * time.Millisecond,
		stat: func(s StatsSnapshot) int64 { return s.LockTimeouts },
		provoke: func(t *testing.T, e *Engine) {
			holder, waiter := e.Begin(IsolationDefault), e.Begin(IsolationDefault)
			if _, err := holder.SelectOne("skus", storage.ByPK(1), ForUpdate); err != nil {
				t.Fatal(err)
			}
			if _, err := waiter.SelectOne("skus", storage.ByPK(1), ForUpdate); !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("waiter = %v, want ErrLockTimeout", err)
			}
			_, _ = waiter.Rollback(), holder.Rollback()
		}},
	{name: "serialization failure", series: "engine_serialization_failures_total", dialect: Postgres,
		stat: func(s StatsSnapshot) int64 { return s.SerializationErr },
		provoke: func(t *testing.T, e *Engine) {
			late := e.Begin(RepeatableRead)
			if _, err := late.SelectOne("skus", storage.ByPK(1)); err != nil {
				t.Fatal(err)
			}
			err := e.Run(RepeatableRead, func(tx *Txn) error {
				_, err := tx.Update("skus", storage.ByPK(1), qty(4))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := late.Update("skus", storage.ByPK(1), qty(3)); !errors.Is(err, ErrSerialization) {
				t.Fatalf("second writer = %v, want ErrSerialization", err)
			}
		}},
	{name: "occ commit", series: "engine_occ_commits_total",
		stat: func(s StatsSnapshot) int64 { return s.OCCCommits },
		provoke: func(t *testing.T, e *Engine) {
			err := e.RunMode(ModeOCC, IsolationDefault, func(tx *Txn) error {
				_, err := tx.Update("skus", storage.ByPK(1), qty(4))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
	{name: "occ conflict", series: "engine_occ_conflicts_total",
		stat: func(s StatsSnapshot) int64 { return s.OCCConflicts },
		provoke: func(t *testing.T, e *Engine) {
			late := e.BeginMode(ModeOCC, IsolationDefault)
			if _, err := late.Update("skus", storage.ByPK(1), qty(3)); err != nil {
				t.Fatal(err)
			}
			err := e.Run(IsolationDefault, func(tx *Txn) error {
				_, err := tx.Update("skus", storage.ByPK(1), qty(4))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := late.Commit(); !errors.Is(err, ErrOCCConflict) {
				t.Fatalf("late commit = %v, want ErrOCCConflict", err)
			}
		}},
}

// TestCounterParity: every event is counted once, in one counter, whichever
// way it is read. Provoking an event once moves Stats and the registry series
// by exactly one each — on an engine that was never wired (Stats only), one
// wired at birth, and one wired after its first transaction, where in
// addition nothing counted before the wiring is lost or counted twice.
func TestCounterParity(t *testing.T) {
	wirings := []struct {
		name        string
		wired, late bool
	}{{"unwired", false, false}, {"wired", true, false}, {"wired-late", true, true}}

	for _, ev := range counterEvents {
		for _, w := range wirings {
			ev, w := ev, w
			t.Run(ev.name+"/"+w.name, func(t *testing.T) {
				timeout := ev.lockTimeout
				if timeout == 0 {
					timeout = 5 * time.Second
				}
				e := New(Config{Dialect: ev.dialect, LockTimeout: timeout})
				e.CreateTable(storage.NewSchema("skus",
					storage.Column{Name: "quantity", Type: storage.TInt}))
				reg := obs.NewRegistry()
				if w.wired && !w.late {
					e.WireObs(reg)
				}
				mustInsert(t, e, "skus", qty(5))
				if w.late {
					preWire := e.Stats()
					e.WireObs(reg)
					if got := e.Stats(); got != preWire {
						t.Fatalf("WireObs moved Stats: %+v -> %+v", preWire, got)
					}
				}

				series := reg.Counter(ev.series)
				stat0, reg0 := ev.stat(e.Stats()), series.Value()
				if w.wired && stat0 != reg0 {
					t.Fatalf("before: Stats %d != %s %d", stat0, ev.series, reg0)
				}
				ev.provoke(t, e)
				if d := ev.stat(e.Stats()) - stat0; d != 1 {
					t.Errorf("Stats delta = %d, want 1", d)
				}
				if d := series.Value() - reg0; w.wired && d != 1 {
					t.Errorf("%s delta = %d, want 1", ev.series, d)
				}
			})
		}
	}
}
