// Command adhocrepl runs the replicated, partitioned serving tier end to
// end: P partitions, each served by one semi-sync leader and N-1 followers
// over the binary wire protocol, fronted by the shard-aware router. Each
// seed drives router-routed transfers and bounded-staleness reads, kills
// one seed-chosen partition's leader mid-workload (unless -nokill),
// promotes the follower with the highest applied LSN, and checks the
// oracles: every acknowledged transfer survives onto the promoted leader,
// each partition's committed history stays serializable, balances are
// conserved, and no lock outlives the run.
//
// Exit codes: 0 = every seed passed, 1 = a seed failed its oracles, 2 = the
// invocation was wrong or the harness itself failed.
//
// Usage:
//
//	go run ./cmd/adhocrepl -nodes 3 -partitions 4      # one seed, failover demo
//	go run ./cmd/adhocrepl -chaos -seeds 20            # CI leader-kill sweep
//	go run ./cmd/adhocrepl -chaos -seed 7 -seeds 1     # replay one seed
package main

import (
	"errors"
	"flag"
	"os"

	"adhoctx/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:])) }

// run parses args, runs the sweep, and returns the exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("adhocrepl", flag.ContinueOnError)
	cfg := chaos.Flags(fs, chaos.Replicated)
	seed := fs.Int64("seed", 1, "first seed")
	seeds := fs.Int("seeds", 1, "number of consecutive seeds to run")
	verbose := fs.Bool("v", false, "print every seed's report, not just failures")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	return chaos.Sweep(*seed, *seeds, func(s int64) chaos.Config {
		c := *cfg
		c.Seed = s
		return c
	}, os.Stdout, *verbose || *seeds == 1)
}
