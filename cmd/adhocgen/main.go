// Command adhocgen drives the scenario DSL end to end: it expands the
// declarative spec catalog into runnable ad-hoc-transaction variants,
// model-checks each against its invariants with the schedule explorer, and
// feeds generated traffic mixes through the fault-injected chaos harness.
//
// Usage:
//
//	go run ./cmd/adhocgen -list                     # specs and variant counts
//	go run ./cmd/adhocgen -expand                   # every generated variant
//	go run ./cmd/adhocgen -explore all              # DFS the whole family
//	go run ./cmd/adhocgen -explore saleor-capture   # one spec's variants
//	go run ./cmd/adhocgen -explore seat-booking/occ+validation-window
//	go run ./cmd/adhocgen -explore all -strategy pct -seeds 400
//	go run ./cmd/adhocgen -replay 'saleor-capture/omitted-check:<schedule-id>'
//	go run ./cmd/adhocgen -chaos points-transfer -seeds 20
//	go run ./cmd/adhocgen -chaos points-transfer -restart -seeds 5
//	go run ./cmd/adhocgen -spec my.scenario -explore all   # add a text spec
//	go run ./cmd/adhocgen -smoke                    # CI: expand + explore + chaos
//
// Exit status: 0 when every explored buggy variant's bug is found within its
// budget, every fixed variant is proven clean to exhaustion, and every chaos
// seed passes its oracles; 1 otherwise; 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adhoctx/internal/chaos"
	"adhoctx/internal/scenario"
	"adhoctx/internal/sched"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list specs and exit")
		expand   = flag.Bool("expand", false, "list every generated variant and exit")
		explore  = flag.String("explore", "", "explore: <variant>, <spec>, or 'all'")
		strategy = flag.String("strategy", "dfs", "exploration strategy: dfs or pct")
		seed     = flag.Int64("seed", 1, "first PCT or chaos seed")
		seeds    = flag.Int("seeds", 400, "PCT seeds per variant, or chaos seeds")
		replay   = flag.String("replay", "", "replay '<variant>:<schedule-id>' and exit")
		chaosArg = flag.String("chaos", "", "run a spec's generated mix through the chaos harness")
		scale    = flag.Int("scale", 0, "with -chaos: seed-world copies (0 = default)")
		specFile = flag.String("spec", "", "also load a text-form spec file into the catalog")
		smoke    = flag.Bool("smoke", false, "CI smoke: expand all, explore buggy variants, 20-seed chaos")
		verbose  = flag.Bool("v", false, "print clean explorations too")
		cfg      = chaosFlags(flag.CommandLine)
	)
	flag.Parse()

	specs, err := catalog(*specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch {
	case *list:
		os.Exit(doList(specs))
	case *expand:
		os.Exit(doExpand(specs))
	case *replay != "":
		os.Exit(doReplay(specs, *replay))
	case *chaosArg != "":
		os.Exit(doChaos(specs, *chaosArg, cfg(), *seed, *seeds, *scale, *verbose))
	case *explore != "":
		os.Exit(doExplore(specs, *explore, *strategy, *seed, *seeds, *verbose))
	case *smoke:
		os.Exit(doSmoke(specs, *seed, *verbose))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// chaosFlags registers -chaos's topology and load flags on fs and returns
// the Config they select: one crash per seed under the default fault plan.
func chaosFlags(fs *flag.FlagSet) func() chaos.Config {
	restart := fs.Bool("restart", false, "with -chaos: restart topology (on-disk WAL, full-stack kills)")
	clients := fs.Int("clients", 4, "with -chaos: concurrent workers")
	ops := fs.Int("ops", 12, "with -chaos: operations per worker")
	return func() chaos.Config {
		c := chaos.Config{Clients: *clients, Ops: *ops, Crashes: 1, Faults: true}
		if *restart {
			c.Topology = chaos.Restart
		}
		return c
	}
}

// catalog is the built-in specs plus an optional text-form spec file.
func catalog(specFile string) ([]*scenario.Spec, error) {
	specs := scenario.Builtins()
	if specFile == "" {
		return specs, nil
	}
	src, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return append(specs, s), nil
}

func expandAll(specs []*scenario.Spec) ([]*scenario.Variant, error) {
	var out []*scenario.Variant
	for _, s := range specs {
		vs, err := scenario.Expand(s)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// resolve maps an -explore argument to variants: an exact variant name, a
// spec name (all its variants), or 'all'.
func resolve(specs []*scenario.Spec, arg string) ([]*scenario.Variant, error) {
	vs, err := expandAll(specs)
	if err != nil {
		return nil, err
	}
	if arg == "all" {
		return vs, nil
	}
	if v, ok := scenario.FindVariant(vs, arg); ok {
		return []*scenario.Variant{v}, nil
	}
	var matched []*scenario.Variant
	for _, v := range vs {
		if v.Spec.Name == arg {
			matched = append(matched, v)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("unknown spec or variant %q (try -list or -expand)", arg)
	}
	return matched, nil
}

func doList(specs []*scenario.Spec) int {
	for _, s := range specs {
		vs, err := scenario.Expand(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		buggy := 0
		for _, v := range vs {
			if v.Buggy {
				buggy++
			}
		}
		budget := s.Budget
		if budget == 0 {
			budget = scenario.DefaultBudget
		}
		fmt.Printf("%-22s %d variants (%d buggy, %d fixed), budget %d\n",
			s.Name, len(vs), buggy, len(vs)-buggy, budget)
		fmt.Printf("%22s %s\n", "", s.Doc)
	}
	return 0
}

func doExpand(specs []*scenario.Spec) int {
	vs, err := expandAll(specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, v := range vs {
		kind := "fixed"
		if v.Buggy {
			kind = "buggy"
		}
		fmt.Printf("%-46s %s  budget=%d\n", v.Name, kind, v.Budget)
	}
	fmt.Printf("%d specs -> %d variants\n", len(specs), len(vs))
	return 0
}

// runVariant explores one variant and reports whether the outcome matches
// its polarity: buggy variants must violate within budget, fixed variants
// must come up clean (and, under DFS, exhaust their schedule space).
func runVariant(v *scenario.Variant, strategy string, seed int64, seeds int, verbose bool) bool {
	start := time.Now()
	var rep *sched.Report
	var err error
	switch strategy {
	case "dfs":
		rep, err = scenario.ExploreDFS(v)
	case "pct":
		rep, err = scenario.ExplorePCT(v, seed, seeds)
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q (want dfs or pct)\n", strategy)
		return false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", v.Name, err)
		return false
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	switch {
	case v.Buggy && rep.Violation == nil:
		fmt.Printf("MISS  %-46s %s: no violation in %d schedules (%v)\n",
			v.Name, strategy, rep.Schedules, elapsed)
		return false
	case v.Buggy:
		fmt.Printf("FOUND %-46s %s: %d schedules, %v\n", v.Name, strategy, rep.Schedules, elapsed)
		if rep.Strategy == "pct" {
			fmt.Printf("      failing seed: %d\n", rep.Seed)
		}
		printViolation(v.Name, rep.Violation)
		return true
	case rep.Violation != nil:
		fmt.Printf("FAIL  %-46s %s: fixed variant violated (%v)\n", v.Name, strategy, elapsed)
		printViolation(v.Name, rep.Violation)
		return false
	case strategy == "dfs" && !rep.Complete:
		fmt.Printf("FAIL  %-46s dfs: fixed variant not explored to completion (%d schedules, %d truncated)\n",
			v.Name, rep.Schedules, rep.Truncated)
		return false
	default:
		if verbose {
			fmt.Printf("PASS  %-46s %s: %d schedules clean (pruned %d, complete=%v, %v)\n",
				v.Name, strategy, rep.Schedules, rep.Pruned, rep.Complete, elapsed)
		}
		return true
	}
}

func printViolation(name string, viol *sched.Violation) {
	for _, line := range strings.Split(strings.TrimRight(viol.Format(), "\n"), "\n") {
		fmt.Printf("      %s\n", line)
	}
	id := viol.ScheduleID
	if viol.MinScheduleID != "" {
		id = viol.MinScheduleID
	}
	fmt.Printf("      replay: go run ./cmd/adhocgen -replay '%s:%s'\n", name, id)
}

func doExplore(specs []*scenario.Spec, arg, strategy string, seed int64, seeds int, verbose bool) int {
	vs, err := resolve(specs, arg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ok := true
	for _, v := range vs {
		if !runVariant(v, strategy, seed, seeds, verbose) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func doReplay(specs []*scenario.Spec, arg string) int {
	name, id, found := strings.Cut(arg, ":")
	if !found {
		fmt.Fprintf(os.Stderr, "replay wants '<variant>:<schedule-id>', got %q\n", arg)
		return 2
	}
	vs, err := expandAll(specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	v, ok := scenario.FindVariant(vs, name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown variant %q (try -expand)\n", name)
		return 2
	}
	rep, err := scenario.Replay(v, id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rep.Diverged {
		fmt.Printf("replay diverged: the variant no longer matches the recorded schedule\n")
	}
	if rep.Violation == nil {
		fmt.Printf("replay of %s: no violation\n", name)
		return 1
	}
	printViolation(name, rep.Violation)
	return 0
}

// doChaos sweeps a spec's generated mix through the chaos harness on cfg's
// topology.
func doChaos(specs []*scenario.Spec, name string, cfg chaos.Config, seed int64, seeds, scale int, verbose bool) int {
	var spec *scenario.Spec
	for _, s := range specs {
		if s.Name == name {
			spec = s
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "unknown spec %q (try -list)\n", name)
		return 2
	}
	wl, err := scenario.Mix(spec, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.Workload = wl
	return chaos.Sweep(seed, seeds, func(s int64) chaos.Config {
		c := cfg
		c.Seed = s
		return c
	}, os.Stdout, verbose)
}

// doSmoke is the CI entry: expand the whole catalog, DFS every buggy variant
// to its first bug, and run a 20-seed chaos smoke on one generated family.
func doSmoke(specs []*scenario.Spec, seed int64, verbose bool) int {
	vs, err := expandAll(specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("expanded %d specs -> %d variants\n", len(specs), len(vs))
	ok := true
	for _, v := range vs {
		if !v.Buggy {
			continue
		}
		if !runVariant(v, "dfs", seed, 0, verbose) {
			ok = false
		}
	}
	smoke := chaos.Config{Clients: 4, Ops: 10, Crashes: 1, Faults: true}
	if doChaos(specs, "points-transfer", smoke, seed, 20, 2, verbose) != 0 {
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Println("smoke ok")
	return 0
}
