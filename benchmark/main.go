// Command benchmark is the repository's benchmark: four end-to-end workloads
// driven closed-loop through the whole serving stack (pooled client -> wire
// -> server -> engine -> WAL -> disk, and a semi-sync follower for one of
// them), hosted in this one process, with a traced run that says where each
// layer's time went. See README.md in this directory.
//
//	go run ./benchmark                         every workload, every metric
//	go run ./benchmark -only hot_occ -cpuprofile cpu.prof
//	go run ./benchmark -compare a.json b.json  end-to-end verdicts, exit 1 on a regression
//
// The benchmark driver runs one workload at a time through run.sh:
//
//	--workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads a one-line JSON result from the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		driverWorkload = flag.String("workload", "", "driver mode: run this one workload and print the one-line result")
		seconds        = flag.Int("seconds", 20, "driver mode: measured seconds of the run")
		traceMode      = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		seed           = flag.Int64("seed", 1, "workload seed; client i draws from seed + 7919*i")
		only           = flag.String("only", "", "run only this workload")
		tmp            = flag.String("tmp", os.TempDir(), "directory the data directories are created under")
		out            = flag.String("out", "", "write the JSON report here instead of standard output")
		traceOut       = flag.String("trace-out", "", "write the traced windows' spans here as JSON lines")
		doCompare      = flag.Bool("compare", false, "compare two JSON reports given as arguments against the bounds in "+manifestPath)
		cpuProfile     = flag.String("cpuprofile", "", "write a CPU profile (relative paths land in the OS temp directory)")
		memProfile     = flag.String("memprofile", "", "write a heap profile at exit")
		mutexProfile   = flag.String("mutexprofile", "", "write a mutex contention profile at exit")
		execTrace      = flag.String("exectrace", "", "write a runtime execution trace")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		var m manifest
		var a, b report
		for path, v := range map[string]any{manifestPath: &m, flag.Arg(0): &a, flag.Arg(1): &b} {
			if err := readJSON(path, v); err != nil {
				return err
			}
		}
		regressed, err := compare(os.Stdout, m, a, b)
		if err == nil && regressed {
			err = fmt.Errorf("at least one end-to-end metric regressed or is missing")
		}
		return err
	}

	cfg := runConfig{
		workloads: workloads, seed: *seed, tmp: *tmp, rounds: fullRounds, window: fullWindow,
		traced: fullTraced, peel: fullPeel, warmUp: warmUp, refBurst: refBurst, minCommitted: minCommitted, traceOut: *traceOut,
	}
	name := *only
	if *driverWorkload != "" {
		name = *driverWorkload
		// One run measures for -seconds in total: four untraced windows, or
		// one untraced window, the traced window and the peel.
		total := time.Duration(*seconds) * time.Second
		cfg.minCommitted = minCommitted / 10 // a slow host must not fail the driver's run; p99 keeps a sample beyond it
		if *traceMode == 0 {
			cfg.rounds, cfg.window, cfg.traced = 4, total/4, 0
		} else {
			cfg.rounds, cfg.window, cfg.traced, cfg.peel = 1, total*3/10, total*9/20, total/4
		}
	}
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		cfg.workloads = []workload{w}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *mutexProfile, *execTrace)
	if err != nil {
		return err
	}
	reports, err := run(cfg)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	rep := &report{SchemaVersion: schemaVersion, Env: stampEnvironment(cfg), Workloads: reports}
	rep.writeTable(os.Stderr)

	if *driverWorkload != "" {
		line, err := resultLine(rep, *traceMode != 0)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(line)
		return err
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out != "" {
		err = os.WriteFile(*out, doc, 0o644)
	} else {
		_, err = os.Stdout.Write(doc)
	}
	if err == nil && !rep.correct() {
		err = fmt.Errorf("an output check failed")
	}
	return err
}

// startProfiles starts whichever profiles were asked for and returns the
// function that finishes them. The server runs in this process, so a profile
// of the benchmark is a profile of the stack. Relative paths are taken under
// the OS temp directory, to keep profiles out of the repository.
func startProfiles(cpu, mem, mutex, exectrace string) (stop func() error, err error) {
	place := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(os.TempDir(), p)
	}
	var stops []func() error
	stop = func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	open := func(p string) (*os.File, error) {
		f, err := os.Create(place(p))
		if err == nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing", f.Name())
		}
		return f, err
	}
	if cpu != "" {
		f, err := open(cpu)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if exectrace != "" {
		f, err := open(exectrace)
		if err != nil {
			return stop, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() error { trace.Stop(); return f.Close() })
	}
	atExit := func(profile, path string) {
		stops = append(stops, func() error {
			f, err := open(path)
			if err != nil {
				return err
			}
			if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(5)
		atExit("mutex", mutex)
	}
	if mem != "" {
		atExit("heap", mem)
	}
	return stop, nil
}
