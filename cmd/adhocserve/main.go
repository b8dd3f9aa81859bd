// Command adhocserve runs the networked serving layer: an engine plus KV
// store behind internal/server's TCP front end, so workloads can be driven
// from a separate process over the real wire protocol:
//
//	adhocserve -listen 127.0.0.1:7411            # serve until SIGINT
//	adhocbench -addr 127.0.0.1:7411              # drive it from another shell
//
// With -data the engine's WAL lives in a real on-disk data directory
// (internal/disk): commits fsync through a segmented file log, a background
// ticker folds the committed state into checkpoints, and on startup the
// directory is recovered — checkpoint plus WAL tail — so committed state
// survives a process restart (or a kill -9; recovery truncates a torn tail):
//
//	adhocserve -data /var/tmp/adhoc -listen 127.0.0.1:7411
//
// The server seeds the "lock_rows" table (rows 1..rows) that the remote
// Figure 2 workload locks, plus an empty "skus" table for ad hoc use —
// unless -data points at a directory with recovered state, which wins.
// Shutdown is graceful: SIGINT/SIGTERM drains in-flight transactions, takes
// a final checkpoint, and -metrics dumps the observability registry on exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/kv"
	"adhoctx/internal/obs"
	"adhoctx/internal/server"
	"adhoctx/internal/sim"
	"adhoctx/internal/storage"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7411", "TCP listen address")
	sessions := flag.Int("sessions", 64, "max concurrent sessions")
	queued := flag.Int("queued", 0, "max queued dials (0 = same as -sessions)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max wait for a session slot")
	idle := flag.Duration("idle", 30*time.Second, "idle-session reap deadline")
	drain := flag.Duration("drain", 5*time.Second, "graceful drain window on shutdown")
	lockTimeout := flag.Duration("lock-timeout", 5*time.Second, "engine row-lock wait bound")
	dialect := flag.String("dialect", "postgres", "engine dialect: mysql or postgres")
	rows := flag.Int("rows", 16, "lock_rows rows to seed")
	metrics := flag.Bool("metrics", false, "dump the obs registry on shutdown")
	dataDir := flag.String("data", "", "data directory for a durable on-disk WAL (empty = in-memory simulated device)")
	segSize := flag.Int64("segsize", 1<<20, "WAL segment size in bytes: each segment is preallocated to it and rotated when full (with -data)")
	ckptEvery := flag.Duration("checkpoint-every", 10*time.Second, "background checkpoint interval (with -data)")
	group := flag.Bool("groupcommit", true, "coalesce concurrent commits into shared-fsync WAL batches (with -data)")
	flag.Parse()

	var d engine.DialectKind
	switch *dialect {
	case "mysql":
		d = engine.MySQL
	case "postgres":
		d = engine.Postgres
	default:
		fmt.Fprintf(os.Stderr, "adhocserve: unknown dialect %q (have mysql, postgres)\n", *dialect)
		os.Exit(2)
	}

	cfg := engine.Config{Dialect: d, LockTimeout: *lockTimeout}
	var (
		dstore *disk.Store
		rec    *disk.Recovered
	)
	if *dataDir != "" {
		var err error
		dstore, rec, err = disk.Open(*dataDir, disk.Options{SegmentSize: *segSize})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocserve: opening %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		cfg.WALDevice = dstore
		cfg.GroupCommit = *group
	}

	eng := engine.New(cfg)
	eng.CreateTable(storage.NewSchema("lock_rows"))
	eng.CreateTable(storage.NewSchema("skus",
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "qty", Type: storage.TInt},
	))
	if rec != nil && !rec.Empty() {
		if err := eng.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN); err != nil {
			fmt.Fprintf(os.Stderr, "adhocserve: recovering %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		fmt.Printf("adhocserve: recovered %s (checkpoint lsn %d, last lsn %d, torn tail %d bytes)\n",
			*dataDir, rec.CheckpointLSN, rec.LastLSN, rec.TruncatedTail)
	} else {
		if err := eng.Run(engine.IsolationDefault, func(t *engine.Txn) error {
			for pk := int64(1); pk <= int64(*rows); pk++ {
				if _, err := t.Insert("lock_rows", map[string]storage.Value{"id": pk}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fmt.Fprintf(os.Stderr, "adhocserve: seeding: %v\n", err)
			os.Exit(1)
		}
	}
	store := kv.NewStore(nil, sim.Latency{})

	reg := obs.NewRegistry()
	eng.WireObs(reg)
	store.WireObs(reg)

	srv := server.New(eng, store, server.Config{
		Addr:         *listen,
		MaxSessions:  *sessions,
		MaxQueued:    *queued,
		QueueWait:    *queueWait,
		IdleTimeout:  *idle,
		DrainTimeout: *drain,
	})
	srv.WireObs(reg)
	if err := srv.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "adhocserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("adhocserve: listening on %s (%s dialect, %d sessions, idle reap %s)\n",
		srv.Addr(), *dialect, *sessions, *idle)

	// Background checkpointing bounds recovery time and reclaims segments.
	// A checkpoint failure is logged, not fatal: the WAL alone still
	// carries every committed transaction.
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	checkpoint := func(when string) {
		snap, lsn, err := eng.Snapshot()
		if err == nil {
			err = dstore.Checkpoint(snap, lsn)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocserve: %s checkpoint: %v\n", when, err)
		}
	}
	if dstore != nil && *ckptEvery > 0 {
		go func() {
			defer close(ckptDone)
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
					checkpoint("background")
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("adhocserve: draining...")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "adhocserve: shutdown: %v\n", err)
	}
	close(ckptStop)
	<-ckptDone
	if dstore != nil {
		// Final checkpoint after the drain: restart recovers from the
		// checkpoint alone, with an empty tail.
		checkpoint("final")
		if err := dstore.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "adhocserve: closing data dir: %v\n", err)
		}
	}
	if *metrics {
		fmt.Print(reg.Text())
	}
}
