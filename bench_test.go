package adhoctx_test

// Repository-level benchmarks: one per evaluation artifact of the paper.
//
//	BenchmarkFigure2LockPrimitives — Figure 2 (lock/unlock latency per impl)
//	BenchmarkFigure3Granularity    — Figure 3 (API throughput, AHT vs DBT,
//	                                 with and without contention)
//	BenchmarkFigure4Rollback       — Figure 4 (shrink-image latency per
//	                                 rollback strategy)
//	BenchmarkTableRegeneration     — Tables 2–5 and 7 from the catalog
//
// Run: go test -bench=. -benchmem
// The simulated latency profile is the EXPERIMENTS.md calibration; absolute
// numbers track the profile, shapes track the paper.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhoctx/internal/adhoc/locks"
	"adhoctx/internal/apps/discourse"
	"adhoctx/internal/catalog"
	"adhoctx/internal/core"
	"adhoctx/internal/engine"
	"adhoctx/internal/experiments"
	"adhoctx/internal/kv"
	"adhoctx/internal/obs"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
)

// BenchmarkFigure2LockPrimitives times one uncontended lock/unlock pair per
// iteration for each of the seven implementations.
func BenchmarkFigure2LockPrimitives(b *testing.B) {
	rtt := 100 * time.Microsecond
	lat := sim.Latency{RTT: rtt}

	store := kv.NewStore(nil, lat)
	sfuEng := engine.New(engine.Config{Dialect: engine.Postgres, Net: lat, LockTimeout: 30 * time.Second})
	sfuEng.CreateTable(benchSchema("lock_rows"))
	sfu := &locks.SFULocker{Eng: sfuEng, Table: "lock_rows"}
	if err := sfu.EnsureRow(1); err != nil {
		b.Fatal(err)
	}
	dbEng := engine.New(engine.Config{
		Dialect: engine.MySQL, Net: lat,
		WALFsync: sim.Latency{Fsync: 2 * time.Millisecond}, LockTimeout: 30 * time.Second,
	})
	locks.SetupDBLockTable(dbEng)

	cases := []struct {
		name   string
		locker core.Locker
		key    string
	}{
		{"SYNC", locks.NewSyncLocker(), "k"},
		{"MEM", locks.NewMemLocker(), "k"},
		{"MEM-LRU", locks.NewLRULocker(1024, false), "k"},
		{"KV-SETNX", &locks.SetNXLocker{Store: store, Token: "b", TTL: time.Minute}, "k"},
		{"KV-MULTI", &locks.MultiLocker{Store: store, Token: "b", TTL: time.Minute}, "k"},
		{"SFU", sfu, "1"},
		{"DB", &locks.DBLocker{Eng: dbEng, BootID: "bench", Owner: "b"}, "k"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, err := c.locker.Acquire(c.key)
				if err != nil {
					b.Fatal(err)
				}
				if err := rel(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3Granularity drives each (API, mode, contention) cell with
// concurrent closed-loop clients and reports req/s.
func BenchmarkFigure3Granularity(b *testing.B) {
	const clients = 6
	cfg := experiments.Figure3Config{
		Clients: clients,
		RTT:     150 * time.Microsecond,
	}
	for _, api := range []string{"RMW", "AA", "CBC", "PBC"} {
		for _, contended := range []bool{true, false} {
			for _, mode := range []string{"AHT", "DBT"} {
				name := api + "/" + mode + "/uncontended"
				if contended {
					name = api + "/" + mode + "/contended"
				}
				b.Run(name, func(b *testing.B) {
					w, err := experiments.NewWorkload(api, mode, contended, cfg)
					if err != nil {
						b.Fatal(err)
					}
					var next atomic.Int64
					b.ResetTimer()
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							for {
								i := next.Add(1)
								if i > int64(b.N) {
									return
								}
								if err := w.Do(c, int(i)); err != nil && !engine.IsRetryable(err) {
									b.Error(err)
									return
								}
							}
						}(c)
					}
					wg.Wait()
					b.StopTimer()
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
					st := w.Engine().Stats()
					b.ReportMetric(float64(st.Deadlocks), "deadlocks")
					b.ReportMetric(float64(st.SerializationErr), "serialization-failures")
				})
			}
		}
	}
}

// BenchmarkFigure4Rollback times one shrink-image invocation per iteration
// for each rollback strategy, with and without conflicting editors.
func BenchmarkFigure4Rollback(b *testing.B) {
	cfg := experiments.Figure4Config{
		Invocations:     1,
		PostsPerImage:   6,
		Editors:         2,
		ImageProcessing: 15 * time.Millisecond,
		EditProcessing:  2 * time.Millisecond,
		EditorThink:     20 * time.Millisecond,
		RTT:             100 * time.Microsecond,
	}
	modes := []discourse.RollbackMode{
		discourse.DBTSerializable, discourse.DBTWeak, discourse.Manual, discourse.Repair,
	}
	for _, contended := range []bool{true, false} {
		for _, mode := range modes {
			name := mode.String() + "/uncontended"
			if contended {
				name = mode.String() + "/contended"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Figure4Cell(mode, contended, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsOverhead measures the cost of the observability wiring on the
// engine's hottest loop — a single-row read-modify-write transaction with no
// simulated network latency, so the instrumentation is the largest possible
// fraction of the work. Compare Disabled vs Enabled: the acceptance bar is
// Enabled staying within 2x of Disabled (in practice it is a few percent,
// since the disabled path is one atomic pointer load per hook).
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry) {
		eng := engine.New(engine.Config{Dialect: engine.MySQL})
		eng.CreateTable(storage.NewSchema("accounts",
			storage.Column{Name: "balance", Type: storage.TInt},
		))
		eng.WireObs(reg)
		var id int64
		err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
			var err error
			id, err = t.Insert("accounts", map[string]storage.Value{"balance": int64(0)})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		schema := eng.Schema("accounts")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
				row, err := t.SelectOne("accounts", storage.ByPK(id), engine.ForUpdate)
				if err != nil {
					return err
				}
				_, err = t.Update("accounts", storage.ByPK(id), map[string]storage.Value{
					"balance": row.Get(schema, "balance").(int64) + 1,
				})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Txn/Disabled", func(b *testing.B) { run(b, nil) })
	b.Run("Txn/Enabled", func(b *testing.B) { run(b, obs.NewRegistry()) })

	// The Figure 2 lock-primitive path: MEM lock/unlock through core.WithLock
	// (the in-memory primitive is the only one fast enough for wiring cost to
	// show; the KV/SFU/DB primitives are dominated by simulated round trips).
	runLock := func(b *testing.B, reg *obs.Registry) {
		core.WireObs(reg)
		defer core.WireObs(nil)
		locker := locks.NewMemLocker()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core.WithLock(locker, "k", func() error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Lock/Disabled", func(b *testing.B) { runLock(b, nil) })
	b.Run("Lock/Enabled", func(b *testing.B) { runLock(b, obs.NewRegistry()) })
}

// BenchmarkTableRegeneration regenerates every study table from the catalog.
func BenchmarkTableRegeneration(b *testing.B) {
	renders := map[string]func() string{
		"Table2":   catalog.RenderTable2,
		"Table3":   catalog.RenderTable3,
		"Table4":   catalog.RenderTable4,
		"Table5":   catalog.RenderTable5,
		"Table7":   catalog.RenderTable7,
		"Findings": catalog.RenderFindings,
	}
	for name, render := range renders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(render()) == 0 {
					b.Fatal("empty render")
				}
			}
		})
	}
}

func benchSchema(table string) *storage.Schema { return storage.NewSchema(table) }
