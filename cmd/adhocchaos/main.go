// Command adhocchaos runs the oracle-checked chaos suite: N seeds of the
// contended transfer workload over real TCP, each under a seed-derived
// network fault schedule and server crash/recovery cycles, each checked for
// serializability of the committed history, balance conservation, and
// leaked locks. A failing seed prints its replay command and the process
// exits nonzero.
//
// With -restart, each seed instead runs restart-mode chaos: the engine's
// WAL lives in a real data directory (one fresh temp dir per seed), and
// every crash kills the ENTIRE serving stack — engine, WAL image, locks,
// server — then re-opens the directory, checkpoint and all. The oracles
// then include acked ⊆ recovered across the real restart, verified by a
// final cold re-open. Restart mode always runs 2PL on a group-commit WAL
// whose fsync is the data directory's own, so it refuses -groupcommit,
// -fsync, -occ and -shards (exit 2) instead of silently ignoring them.
//
// Exit codes: 0 = every seed passed, 1 = a seed failed its oracles, 2 = the
// invocation was wrong or the harness itself failed.
//
// Usage:
//
//	go run ./cmd/adhocchaos                 # 20 seeds, full schedule
//	go run ./cmd/adhocchaos -seeds 3 -v     # CI smoke
//	go run ./cmd/adhocchaos -seed 17 -seeds 1   # replay one seed
//	go run ./cmd/adhocchaos -restart -seeds 20  # durable-restart suite
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"adhoctx/internal/chaos"
	"adhoctx/internal/faults"
)

func main() { os.Exit(run(os.Args[1:])) }

// restartIgnores lists the flags restart mode would ignore (see the package
// comment); -restart refuses them.
var restartIgnores = []string{"groupcommit", "fsync", "occ", "shards"}

// run parses args, runs the sweep, and returns the exit code: 0 = every seed
// passed, 1 = a seed failed its oracles, 2 = the invocation or the harness
// itself failed.
func run(args []string) int {
	fs := flag.NewFlagSet("adhocchaos", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "first seed")
		seeds    = fs.Int("seeds", 20, "number of consecutive seeds to run")
		clients  = fs.Int("clients", 8, "concurrent transfer workers per seed")
		ops      = fs.Int("ops", 40, "transfers per worker")
		rows     = fs.Int("rows", 8, "accounts")
		crashes  = fs.Int("crashes", 1, "server crash/recover cycles per seed")
		noFaults = fs.Bool("nofaults", false, "disable network fault injection (crashes only)")
		group    = fs.Bool("groupcommit", false, "run the engine with WAL group commit (adds the wal flush crash points)")
		shards   = fs.Int("shards", 0, "lock manager shard count (0 = default)")
		fsync    = fs.Duration("fsync", 0, "simulated WAL device flush time")
		occ      = fs.Bool("occ", false, "run transfers as optimistic (OCC) transactions; adds the engine OCC crash points")
		restart  = fs.Bool("restart", false, "restart mode: on-disk WAL, crashes kill and re-open the whole stack")
		verbose  = fs.Bool("v", false, "print every seed's report, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *restart {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(restartIgnores, f.Name) {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "adhocchaos: -restart would ignore %s: restart mode always runs 2PL "+
				"on a group-commit WAL whose fsync is the data directory's own, with the default lock manager\n",
				strings.Join(ignored, ", "))
			return 2
		}
		return runRestartMode(*seed, *seeds, *clients, *ops, *rows, *crashes, *noFaults, *verbose)
	}

	mk := func(s int64) chaos.Config {
		cfg := chaos.Config{
			Seed:        s,
			Clients:     *clients,
			Ops:         *ops,
			Rows:        *rows,
			Crashes:     *crashes,
			GroupCommit: *group,
			LockShards:  *shards,
			Fsync:       *fsync,
			OCC:         *occ,
		}
		if !*noFaults {
			cfg.Plan = faults.DefaultPlan()
		}
		return cfg
	}

	start := time.Now()
	var failures int
	for s := *seed; s < *seed+int64(*seeds); s++ {
		rep, err := chaos.Run(mk(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: harness failure: %v\n", s, err)
			return 2
		}
		if rep.Failed() {
			failures++
			fmt.Print(rep.Summary())
		} else if *verbose {
			fmt.Print(rep.Summary())
		} else {
			fmt.Printf("seed %d: ok (%d transfers, %d committed, faults d/t/wd/rd=%d/%d/%d/%d, crashes=%d)\n",
				rep.Seed, rep.Transfers, rep.Committed,
				rep.Faults[faults.Drop], rep.Faults[faults.Truncate],
				rep.Faults[faults.WriteDelay], rep.Faults[faults.ReadDelay],
				len(rep.CrashPoints))
		}
	}
	fmt.Printf("%d seeds in %s: %d failed\n", *seeds, time.Since(start).Round(time.Millisecond), failures)
	if failures > 0 {
		return 1
	}
	return 0
}

func runRestartMode(seed int64, seeds, clients, ops, rows, crashes int, noFaults, verbose bool) int {
	start := time.Now()
	var failures int
	for s := seed; s < seed+int64(seeds); s++ {
		dir, err := os.MkdirTemp("", "adhocchaos-restart-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: temp dir: %v\n", s, err)
			return 2
		}
		cfg := chaos.RestartConfig{
			Seed:     s,
			Clients:  clients,
			Ops:      ops,
			Rows:     rows,
			Restarts: crashes,
			Dir:      dir,
		}
		if !noFaults {
			cfg.Plan = faults.DefaultPlan()
		}
		rep, err := chaos.RunRestart(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: harness failure: %v\n", s, err)
			return 2
		}
		if rep.Failed() {
			failures++
			fmt.Print(rep.Summary())
			fmt.Printf("  data dir kept for inspection: %s\n", dir)
		} else {
			if verbose {
				fmt.Print(rep.Summary())
			} else {
				fmt.Printf("seed %d: ok (%d transfers, %d acked markers, boots=%d, crashes=%d, torn-bytes=%d)\n",
					rep.Seed, rep.Transfers, rep.AckedMarkers, rep.Boots,
					len(rep.CrashPoints), rep.TruncatedBytes)
			}
			_ = os.RemoveAll(dir)
		}
	}
	fmt.Printf("%d restart seeds in %s: %d failed\n", seeds, time.Since(start).Round(time.Millisecond), failures)
	if failures > 0 {
		return 1
	}
	return 0
}
