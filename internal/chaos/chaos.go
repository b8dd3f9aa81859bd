// Package chaos is the oracle-checked fault-injection harness for the
// networked stack: it runs a contended workload over real TCP while
// internal/faults tears connections and internal/sim crash points kill the
// serving stack mid-COMMIT, then checks what survived against the oracles —
// every acknowledged commit is in the final state, every era's committed
// history is conflict-serializable (internal/analyzer), the workload's own
// invariants hold (the built-in transfer workload conserves the total
// balance), and no lock outlives its session.
//
// One harness serves three topologies (Config.Topology). They share the
// worker loop, the crash arming and the final check; they differ only in how
// the stack boots and what the supervisor does when a crash point fires:
// recover the engine in place (InProcess), kill the whole stack and re-open
// its data directory (Restart), or promote a follower (Replicated).
//
// Everything is derived from one seed: the network fault schedule, each
// worker's operation sequence, and the crash points' timing. A failing seed
// is therefore a bug report — Report.Replay holds the command line that
// reproduces it.
//
// The methodology is Jepsen's, scaled down: generate real histories under
// real faults, and let a checker — not the implementation's own claims —
// decide whether isolation held (see PAPERS.md on Jepsen and ALICE).
package chaos

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"adhoctx/internal/faults"
	"adhoctx/internal/obs"
)

// Topology is the shape of the stack under test.
type Topology int

const (
	// InProcess is one engine served over TCP; a crash is recovered in
	// place from the engine's WAL and the server restarts on the same port.
	InProcess Topology = iota
	// Restart is one engine whose WAL lives in a real data directory; a
	// crash kills the whole stack — engine, WAL image, locks, server — and
	// re-opens the directory, exactly like a process restart. The final
	// state is a cold re-open of the directory with no server at all.
	Restart
	// Replicated is Partitions partitions, each a strict semi-sync leader
	// with Followers followers behind the shard-aware router; a crash kills
	// one partition's leader and the follower with the highest applied LSN
	// is promoted.
	Replicated
)

// Config parameterizes one seed. Everything observable is a function of
// Seed plus the scheduler's interleaving (see internal/faults on
// pseudo-determinism).
type Config struct {
	Topology Topology
	// Seed drives the fault schedule, the workload, and crash timing.
	Seed int64
	// Clients is the number of concurrent workers (default 8; 4 replicated).
	Clients int
	// Ops is the number of operations each worker attempts (default 40; 30
	// replicated, where every fourth is a bounded-staleness follower read).
	Ops int
	// Rows is the number of accounts of the built-in transfer workload, per
	// partition (default 8; 4 replicated; at least 2).
	Rows int
	// Partitions and Followers shape the Replicated topology (default 2
	// each); the other topologies are one partition with no followers.
	Partitions, Followers int
	// Crashes is how many crash points to fire, one after another
	// (Replicated: at most one leader kill).
	Crashes int
	// Faults turns on the network fault schedule: faults.DefaultPlan, or a
	// milder plan on the Replicated topology.
	Faults bool
	// GroupCommit enables WAL group commit; on the InProcess topology the
	// crash rotation then includes the wal/groupcommit points. Restart
	// always runs group commit on its data directory's own fsync.
	GroupCommit bool
	// Fsync is the simulated WAL device flush time. Nonzero makes the
	// flush a real bottleneck so group-commit batches actually form.
	Fsync time.Duration
	// LockShards partitions the engine's lock manager (0 = lockmgr default).
	LockShards int
	// OCC runs the built-in transfer workload as optimistic transactions;
	// the crash rotation then includes the engine's OCC validate/commit
	// points (InProcess only).
	OCC bool
	// Obs, when non-nil, receives server, fault-injector and replication
	// metrics.
	Obs *obs.Registry
	// Workload is the schema + operations + state oracle to run. Nil means
	// the built-in contended-transfer workload over Rows accounts.
	Workload *Workload
}

func (c Config) withDefaults() Config {
	clients, ops, rows := 8, 40, 8
	if c.Topology == Replicated {
		clients, ops, rows = 4, 30, 4
		if c.Partitions <= 0 {
			c.Partitions = 2
		}
		if c.Followers <= 0 {
			c.Followers = 2
		}
	} else {
		c.Partitions, c.Followers = 1, 0
	}
	if c.Clients <= 0 {
		c.Clients = clients
	}
	if c.Ops <= 0 {
		c.Ops = ops
	}
	if c.Rows < 2 {
		c.Rows = rows
	}
	return c
}

// check rejects the combinations a topology cannot run.
func (c Config) check() error {
	switch {
	case c.Topology == Restart && (c.OCC || c.GroupCommit || c.Fsync > 0 || c.LockShards > 0):
		return errors.New("chaos: the restart topology runs 2PL group commit on its data directory's own fsync with the default lock manager")
	case c.Topology == Replicated && (c.OCC || c.Workload != nil || c.Crashes > 1):
		return errors.New("chaos: the replicated topology runs the 2PL transfer workload and kills at most one leader")
	case c.Workload != nil && c.OCC != c.Workload.OCC:
		// The workload, not OCC, picks the transaction mode; OCC arms the
		// OCC crash points, which fire only if the transactions are OCC.
		return errors.New("chaos: OCC must match the workload's transaction mode")
	}
	return nil
}

// Flags registers on fs the Config flags of the CLI that runs topology t —
// cmd/adhocrepl's for Replicated, cmd/adhocchaos's otherwise (its -restart
// picks Restart) — and returns the Config they set. Until fs.Parse it holds
// that CLI's defaults, which are exactly the flags ReplayCommand leaves out.
func Flags(fs *flag.FlagSet, t Topology) *Config {
	c := &Config{Topology: InProcess, Crashes: 1, Faults: true}
	if t == Replicated {
		c = &Config{Topology: Replicated, Crashes: 1}
	}
	*c = c.withDefaults()
	fs.IntVar(&c.Clients, "clients", c.Clients, "concurrent workers per seed")
	fs.IntVar(&c.Ops, "ops", c.Ops, "operations per worker")
	fs.IntVar(&c.Rows, "rows", c.Rows, "accounts (per partition when replicated)")
	fs.BoolVar(&c.GroupCommit, "groupcommit", false, "run the engine with WAL group commit")
	fs.DurationVar(&c.Fsync, "fsync", 0, "simulated WAL device flush time")
	if t == Replicated {
		fs.IntVar(&c.Partitions, "partitions", c.Partitions, "partition count")
		fs.Var(&funcFlag{
			get: func() string { return strconv.Itoa(c.Followers + 1) },
			set: func(s string) error {
				n, err := strconv.Atoi(s)
				if err == nil && n < 2 {
					err = errors.New("need at least 2 (leader + 1 follower)")
				}
				c.Followers = n - 1
				return err
			},
		}, "nodes", "nodes per partition (1 leader + N-1 followers)")
		boolFlag(fs, "nokill", "do not kill any leader (steady-state run)",
			func() bool { return c.Crashes == 0 }, func(b bool) {
				c.Crashes = 1
				if b {
					c.Crashes = 0
				}
			})
		fs.BoolVar(&c.Faults, "chaos", false, "enable the network fault schedule (drops, torn frames, delays)")
		return c
	}
	fs.IntVar(&c.Crashes, "crashes", c.Crashes, "crash/recover cycles per seed")
	boolFlag(fs, "nofaults", "disable network fault injection (crashes only)",
		func() bool { return !c.Faults }, func(b bool) { c.Faults = !b })
	fs.IntVar(&c.LockShards, "shards", 0, "lock manager shard count (0 = default)")
	fs.BoolVar(&c.OCC, "occ", false, "run transfers as optimistic (OCC) transactions; adds the engine OCC crash points")
	boolFlag(fs, "restart", "restart topology: on-disk WAL, crashes kill and re-open the whole stack",
		func() bool { return c.Topology == Restart }, func(b bool) {
			c.Topology = InProcess
			if b {
				c.Topology = Restart
			}
		})
	return c
}

// funcFlag is a flag over a derived view of a Config field.
type funcFlag struct {
	get    func() string
	set    func(string) error
	isBool bool
}

func (f *funcFlag) String() string {
	if f.get == nil {
		return ""
	}
	return f.get()
}
func (f *funcFlag) Set(s string) error { return f.set(s) }
func (f *funcFlag) IsBoolFlag() bool   { return f.isBool }

func boolFlag(fs *flag.FlagSet, name, usage string, get func() bool, set func(bool)) {
	fs.Var(&funcFlag{
		isBool: true,
		get:    func() string { return strconv.FormatBool(get()) },
		set: func(s string) error {
			b, err := strconv.ParseBool(s)
			set(b)
			return err
		},
	}, name, usage)
}

// ReplayCommand renders the command line that reruns cfg: the seed, plus
// every Config flag whose value differs from the CLI's default. A workload's
// own CLI (Workload.Replay) may default the load differently, so its line
// always carries -clients and -ops.
func ReplayCommand(cfg Config) string {
	cmd := "go run ./cmd/adhocchaos"
	if cfg.Topology == Replicated {
		cmd = "go run ./cmd/adhocrepl"
	}
	ownCLI := cfg.Workload != nil && cfg.Workload.Replay != ""
	if ownCLI {
		cmd = cfg.Workload.Replay
	}
	cmd += fmt.Sprintf(" -seed %d -seeds 1", cfg.Seed)
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	*Flags(fs, cfg.Topology) = cfg.withDefaults()
	fs.VisitAll(func(f *flag.Flag) {
		v := f.Value.String()
		switch b, _ := f.Value.(interface{ IsBoolFlag() bool }); {
		case v == f.DefValue && !(ownCLI && (f.Name == "clients" || f.Name == "ops")):
		case b != nil && b.IsBoolFlag() && v == "true":
			cmd += " -" + f.Name
		case b != nil && b.IsBoolFlag():
			cmd += " -" + f.Name + "=" + v
		default:
			cmd += " -" + f.Name + " " + v
		}
	})
	return cmd
}

// Report is the outcome of one seed.
type Report struct {
	Seed int64
	// Workload names the workload that ran.
	Workload string
	// Ops and OpErrs count worker-level outcomes; an error is a worker that
	// exhausted its retries, which under heavy fault schedules is legitimate
	// (the oracles are what must hold).
	Ops, OpErrs int
	// Acked is how many acknowledged commits the marker oracle checked
	// against the final state.
	Acked int
	// Committed is the number of committed transactions across every era's
	// history (includes duplicates from ambiguous-commit retries).
	Committed int
	// Retries is the client's backoff-retry count (the router's redirect
	// count on the Replicated topology).
	Retries int64
	// Faults counts injected network faults by kind.
	Faults map[faults.Kind]int64
	// CrashPoints are the crash points that fired, in order.
	CrashPoints []string
	// Recoveries counts completed recoveries: in-place recoveries, restarts,
	// or failovers.
	Recoveries int
	// TornBytes totals the torn-tail bytes recovery cut from the data
	// directory across boots (Restart only).
	TornBytes int64
	// Observed is the workload oracle's view of each partition's final state
	// (the transfer workload reports "sum=<total balance>").
	Observed string
	// LeakedLocks totals the locks still held on every node after all
	// clients disconnected (oracle: 0).
	LeakedLocks int
	// LeakedSnapshots totals the snapshots still registered on every node
	// after all clients disconnected (oracle: 0): each one would pin that
	// engine's snapshot watermark, and with it every row version the
	// watermark keeps, for good.
	LeakedSnapshots int
	// Violations lists every oracle violation; empty means the seed passed.
	Violations []string
	// Replay is the command line that reproduces this run.
	Replay string
	// Dir is the Restart topology's data directory, kept for inspection
	// only when the seed failed ("" otherwise).
	Dir string
	// Elapsed is the wall time of the workload phase.
	Elapsed time.Duration
}

// Failed reports whether any oracle was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders the report as one line per fact.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %s: %d ops (%d failed), %d acked, %d committed txns, %d retries, %s\n",
		r.Seed, r.Workload, r.Ops, r.OpErrs, r.Acked, r.Committed, r.Retries, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  faults: drop=%d truncate=%d wdelay=%d rdelay=%d; crashes=%v recoveries=%d torn-bytes=%d\n",
		r.Faults[faults.Drop], r.Faults[faults.Truncate], r.Faults[faults.WriteDelay],
		r.Faults[faults.ReadDelay], r.CrashPoints, r.Recoveries, r.TornBytes)
	if !r.Failed() {
		fmt.Fprintf(&b, "  oracles: acked ⊆ final state, serializable committed history per era, %s, leaked locks=0\n", r.Observed)
		return b.String()
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(&b, "  replay: %s\n", r.Replay)
	if r.Dir != "" {
		fmt.Fprintf(&b, "  data dir kept for inspection: %s\n", r.Dir)
	}
	return b.String()
}

// Sweep runs n consecutive seeds starting at first, writing one line per
// passing seed (its Summary when verbose), the Summary of every failing
// seed, and a closing count to w; a harness failure goes to stderr. It
// returns the CLI exit code: 0 = every seed passed, 1 = a seed failed its
// oracles, 2 = the harness failed.
func Sweep(first int64, n int, mk func(seed int64) Config, w io.Writer, verbose bool) int {
	start := time.Now()
	failed := 0
	for s := first; s < first+int64(n); s++ {
		rep, err := Run(mk(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: harness failure: %v\n", s, err)
			return 2
		}
		switch {
		case rep.Failed():
			failed++
			fmt.Fprint(w, rep.Summary())
		case verbose:
			fmt.Fprint(w, rep.Summary())
		default:
			fmt.Fprintf(w, "seed %d: ok (%d ops, %d acked, %d committed, faults d/t/wd/rd=%d/%d/%d/%d, crashes=%d)\n",
				rep.Seed, rep.Ops, rep.Acked, rep.Committed, rep.Faults[faults.Drop], rep.Faults[faults.Truncate],
				rep.Faults[faults.WriteDelay], rep.Faults[faults.ReadDelay], len(rep.CrashPoints))
		}
	}
	fmt.Fprintf(w, "%d seeds in %s: %d failed\n", n, time.Since(start).Round(time.Millisecond), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
