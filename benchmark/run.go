package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. gated marks the
// end-to-end metrics BENCHMARK.json lists with a bound; the others are printed
// beside them for the reader.
type metricDef struct {
	name, unit string
	gated      bool
}

// Every metric the benchmark reports, in print order. The time-based
// end-to-end metrics are gated in units of the reference operation measured
// during the same window (reference.go): "ref" is one reference operation's
// median time. The raw values are printed too, and reach the driver as
// per-layer raw.* metrics.
var (
	endToEnd = []metricDef{
		{"setup_s", "s", true},
		{"txn_per_ref", "1/ref", true}, {"txn_p50_refs", "ref", true}, {"txn_p99_refs", "ref", true},
		{"wal_bytes_per_txn", "bytes", true}, {"mem_bytes_per_txn", "bytes", true},
		{"txn_per_s", "1/s", false}, {"txn_p50_us", "us", false}, {"txn_p99_us", "us", false},
		{"ref_us_p50", "us", false}, {"failed_frac", "ratio", false},
	}
	perLayer = []metricDef{
		{name: "client.begin_us_p50", unit: "us"}, {name: "client.stmt_us_p50", unit: "us"}, {name: "client.stmt_us_p99", unit: "us"},
		{name: "client.commit_us_p50", unit: "us"}, {name: "client.commit_us_p99", unit: "us"}, {name: "client.round_trips_per_txn", unit: "count"},
		{name: "client.attempts_per_txn", unit: "count"}, {name: "client.backoff_us_per_txn", unit: "us"}, {name: "client.failed_frac", unit: "ratio"},
		{name: "wire.bytes_per_txn", unit: "bytes"}, {name: "wire.codec_ns_per_frame", unit: "ns"}, {name: "wire.codec_allocs_per_frame", unit: "count"},
		{name: "wire.transit_us_p50", unit: "us"},
		{name: "server.begin_us_p50", unit: "us"}, {name: "server.select_us_p50", unit: "us"}, {name: "server.update_us_p50", unit: "us"},
		{name: "server.commit_us_p50", unit: "us"}, {name: "server.commit_us_p99", unit: "us"}, {name: "server.sessions_accepted", unit: "count"},
		{name: "server.request_errors", unit: "count"},
		{name: "engine.stmt_us_p50", unit: "us"}, {name: "engine.commit_us_p50", unit: "us"}, {name: "engine.commit_us_p99", unit: "us"},
		{name: "engine.statements_per_txn", unit: "count"}, {name: "engine.rollbacks_per_txn", unit: "count"},
		{name: "engine.snapshot_ms_p50", unit: "ms"}, {name: "engine.snapshot_ms_max", unit: "ms"}, {name: "engine.inproc_txn_per_s", unit: "1/s"},
		{name: "engine.inproc_txn_p50_us", unit: "us"}, {name: "engine.e2e_over_inproc", unit: "ratio"}, {name: "engine.load_recovered_ms", unit: "ms"},
		{name: "lockmgr.acquires_per_txn", unit: "count"}, {name: "lockmgr.waits_per_ktxn", unit: "count"}, {name: "lockmgr.wait_us_p50", unit: "us"},
		{name: "lockmgr.wait_us_p99", unit: "us"}, {name: "lockmgr.wait_us_per_txn", unit: "us"}, {name: "lockmgr.deadlocks", unit: "count"},
		{name: "lockmgr.slow_paths", unit: "count"}, {name: "lockmgr.held_after", unit: "count"},
		{name: "occ.commits", unit: "count"}, {name: "occ.conflicts", unit: "count"}, {name: "occ.conflict_frac", unit: "ratio"},
		{name: "wal.appends_per_txn", unit: "count"}, {name: "wal.records_per_sync", unit: "count"}, {name: "wal.syncs_per_txn", unit: "count"},
		{name: "wal.resident_bytes_end", unit: "bytes"},
		{name: "disk.append_us_p50", unit: "us"}, {name: "disk.sync_us_p50", unit: "us"}, {name: "disk.sync_us_p99", unit: "us"},
		{name: "disk.sync_busy_frac", unit: "ratio"}, {name: "disk.bytes_per_sync", unit: "bytes"}, {name: "disk.checkpoint_ms_p50", unit: "ms"},
		{name: "disk.checkpoint_ms_max", unit: "ms"}, {name: "disk.checkpoint_bytes", unit: "bytes"}, {name: "disk.segments_end", unit: "count"},
		{name: "disk.dir_bytes_per_txn", unit: "bytes"}, {name: "disk.recover_ms", unit: "ms"},
		{name: "repl.ship_us_p50", unit: "us"}, {name: "repl.ship_us_p99", unit: "us"}, {name: "repl.records_per_ship", unit: "count"},
		{name: "repl.ship_busy_frac", unit: "ratio"}, {name: "repl.apply_us_p50", unit: "us"}, {name: "repl.follower_sync_us_p50", unit: "us"},
		{name: "repl.lag_lsn_end", unit: "count"}, {name: "repl.degrades", unit: "count"},
		{name: "go.cpu_us_per_txn", unit: "us"}, {name: "go.allocs_per_txn", unit: "count"}, {name: "go.alloc_bytes_per_txn", unit: "bytes"},
		{name: "raw.txn_per_s", unit: "1/s"}, {name: "raw.txn_p50_us", unit: "us"}, {name: "raw.txn_p99_us", unit: "us"},
		{name: "host.ref_us_p50", unit: "us"}, {name: "setup.stack_s", unit: "s"},
		{name: "go.gc_cycles", unit: "count"}, {name: "go.gc_pause_ms_total", unit: "ms"}, {name: "host.steal_frac", unit: "ratio"},
		{name: "trace.spans", unit: "count"}, {name: "trace.overhead_frac", unit: "ratio"}, {name: "trace.unaccounted_frac", unit: "ratio"},
	}
)

// The shape of a full run (`go run ./benchmark`): fixed, so that any two
// reports of one schema version are comparable. Driver mode and the smoke
// test size their own runConfig.
const (
	fullRounds = 5
	fullWindow = 6 * time.Second
	fullTraced = 6 * time.Second
	fullPeel   = 4 * time.Second
)

// manifestPath is where -compare reads the bounds from, relative to the
// repository root the benchmark is run from.
const manifestPath = "BENCHMARK.json"

// runConfig sizes one run of the benchmark.
type runConfig struct {
	workloads    []workload
	seed         int64
	tmp          string
	rounds       int           // untraced windows per workload, interleaved across workloads
	window       time.Duration // measured time of one untraced window
	traced       time.Duration // measured time of the traced window; 0 skips the traced round and the peel
	peel         time.Duration
	warmUp       time.Duration
	refBurst     time.Duration
	minCommitted int
	traceOut     string // JSON-lines span file; "" writes none
}

func (cfg runConfig) windowOpts(seed int64, measure time.Duration, traced bool) windowOpts {
	return windowOpts{
		tmp: cfg.tmp, seed: seed, warmUp: cfg.warmUp, refBurst: cfg.refBurst,
		measure: measure, traced: traced, minCommitted: cfg.minCommitted,
	}
}

// maxSteal is the share of the machine's CPU time a hypervisor may take from
// this guest during a window (host.steal_frac) for the window to count as
// quiet. On the sizing host idle periods read 0.000-0.010. In the ten-run set
// README.md calls D, a fifth of the windows read more, and p99 rose with it
// on every writing workload: hot_occ 6.7 refs below 0.005, 8.9 up to 0.015,
// 13 up to 0.04, 16 above; p50 and throughput moved only above 0.04.
const maxSteal = 0.015

// quietWindows returns the indices of the windows a run's medians are taken
// over: the ones the hypervisor left alone, and never fewer than the two it
// stole least from (one, of a single window). Every window's output checks
// and failures count whether or not it is kept, and no window is run again,
// so a run takes the same time on a noisy host as on a quiet one.
func quietWindows(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := min(2, len(idx))
	for keep < len(idx) && steal[idx[keep]] <= maxSteal {
		keep++
	}
	return idx[:keep]
}

// roundSeed spaces the windows of one run apart in seed space, so the median
// over windows is also a median over inputs.
func roundSeed(seed int64, round int) int64 { return seed + 104729*int64(round) }

// workloadReport is one workload's part of the run.
type workloadReport struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Checks     []string           `json:"checks"`
	Violations []string           `json:"violations"`
}

// run executes the untraced rounds, interleaved round-robin across the
// workloads so a slow period of the host touches all of them, then (when
// cfg.traced is set) one traced window and one engine peel per workload.
// End-to-end metrics only ever come from untraced windows.
func run(cfg runConfig) ([]workloadReport, error) {
	type acc struct {
		e2e, layer map[string][]float64
		rep        workloadReport
	}
	accs := make([]*acc, len(cfg.workloads))
	for i, w := range cfg.workloads {
		accs[i] = &acc{e2e: map[string][]float64{}, layer: map[string][]float64{},
			rep: workloadReport{Name: w.name, Why: w.why, Checks: []string{}, Violations: []string{}}}
	}
	absorb := func(a *acc, res *windowResult) {
		a.rep.Attempted += res.attempted
		a.rep.Failed += res.failed
		a.rep.Checks = append(a.rep.Checks, res.checks.ran...)
		a.rep.Violations = append(a.rep.Violations, res.checks.failed...)
	}

	for round := 0; round < cfg.rounds; round++ {
		for i, w := range cfg.workloads {
			res, err := runWindow(w, cfg.windowOpts(roundSeed(cfg.seed, round), cfg.window, false))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%-20s round %d: %8.0f txn/s  p50 %7.0f us  p99 %7.0f us  ref %5.0f us  steal %.3f\n",
				w.name, round, res.e2e["txn_per_s"], res.e2e["txn_p50_us"], res.e2e["txn_p99_us"], res.e2e["ref_us_p50"], res.layer["host.steal_frac"])
			absorb(accs[i], res)
			for k, v := range res.e2e {
				accs[i].e2e[k] = append(accs[i].e2e[k], v)
			}
			for k, v := range res.layer {
				accs[i].layer[k] = append(accs[i].layer[k], v)
			}
		}
	}

	var traces []workloadSpans
	for i, w := range cfg.workloads {
		a := accs[i]
		a.rep.EndToEnd = make(map[string]summary)
		quiet := quietWindows(a.layer["host.steal_frac"])
		if len(quiet) < cfg.rounds {
			fmt.Fprintf(os.Stderr, "%-20s medians over %d of %d windows: the hypervisor stole more than %.1f%% of the CPU from the rest\n",
				w.name, len(quiet), cfg.rounds, 100*maxSteal)
		}
		for _, m := range endToEnd {
			all := a.e2e[m.name]
			kept := make([]float64, len(quiet))
			for j, k := range quiet {
				kept[j] = all[k]
			}
			a.rep.EndToEnd[m.name] = summarize(kept, m.unit)
		}
		if cfg.traced == 0 {
			continue
		}
		seed := roundSeed(cfg.seed, cfg.rounds)
		res, err := runWindow(w, cfg.windowOpts(seed, cfg.traced, true))
		if err != nil {
			return nil, err
		}
		absorb(a, res)
		layer := res.layer
		// Tracing allocates, so the Go runtime's own counters come from the
		// untraced windows, and so does the steal those windows saw.
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "go.") || m.name == "host.steal_frac" {
				layer[m.name] = median(a.layer[m.name])
			}
		}
		untraced := a.rep.EndToEnd["txn_per_s"].Median
		layer["raw.txn_per_s"] = untraced
		layer["raw.txn_p50_us"] = a.rep.EndToEnd["txn_p50_us"].Median
		layer["raw.txn_p99_us"] = a.rep.EndToEnd["txn_p99_us"].Median
		layer["host.ref_us_p50"] = a.rep.EndToEnd["ref_us_p50"].Median
		layer["trace.overhead_frac"] = 1 - res.e2e["txn_per_s"]/untraced
		perS, p50, err := runPeel(w, cfg.tmp, seed, cfg.warmUp, cfg.peel)
		if err != nil {
			return nil, err
		}
		layer["engine.inproc_txn_per_s"] = perS
		layer["engine.inproc_txn_p50_us"] = p50
		layer["engine.e2e_over_inproc"] = untraced / perS
		ns, allocs, err := replayCodec(res.codec)
		if err != nil {
			return nil, err
		}
		layer["wire.codec_ns_per_frame"] = ns
		layer["wire.codec_allocs_per_frame"] = allocs
		fmt.Fprintf(os.Stderr, "%-20s traced:  %8.0f txn/s (%+.1f%% vs untraced)  in-process %8.0f txn/s\n",
			w.name, res.e2e["txn_per_s"], -100*layer["trace.overhead_frac"], perS)

		a.rep.PerLayer = make(map[string]summary)
		for _, m := range perLayer {
			a.rep.PerLayer[m.name] = summarize([]float64{layer[m.name]}, m.unit)
		}
		traces = append(traces, workloadSpans{w.name, res.spans})
	}
	if cfg.traceOut != "" && cfg.traced > 0 {
		if err := writeSpans(cfg.traceOut, traces); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	out := make([]workloadReport, len(accs))
	for i, a := range accs {
		out[i] = a.rep
	}
	return out, nil
}
