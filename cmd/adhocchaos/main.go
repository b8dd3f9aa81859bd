// Command adhocchaos runs the oracle-checked chaos suite: N seeds of the
// contended transfer workload over real TCP, each under a seed-derived
// network fault schedule and server crash/recovery cycles, each checked for
// serializability of the committed history, balance conservation, and
// leaked locks. A failing seed prints its replay command and the process
// exits nonzero.
//
// With -restart, each seed instead runs the restart topology: the engine's
// WAL lives in a real data directory (one fresh temp dir per seed, kept only
// if the seed fails), and every crash kills the ENTIRE serving stack —
// engine, WAL image, locks, server — then re-opens the directory, checkpoint
// and all. The oracles
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

	"adhoctx/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:])) }

// restartIgnores lists the flags the restart topology cannot honour (see
// the package comment); -restart refuses them.
var restartIgnores = []string{"groupcommit", "fsync", "occ", "shards"}

// run parses args, runs the sweep, and returns the exit code: 0 = every seed
// passed, 1 = a seed failed its oracles, 2 = the invocation or the harness
// itself failed.
func run(args []string) int {
	fs := flag.NewFlagSet("adhocchaos", flag.ContinueOnError)
	cfg := chaos.Flags(fs, chaos.InProcess)
	seed := fs.Int64("seed", 1, "first seed")
	seeds := fs.Int("seeds", 20, "number of consecutive seeds to run")
	verbose := fs.Bool("v", false, "print every seed's report, not just failures")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if cfg.Topology == chaos.Restart {
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
	}
	return chaos.Sweep(*seed, *seeds, func(s int64) chaos.Config {
		c := *cfg
		c.Seed = s
		return c
	}, os.Stdout, *verbose)
}
