package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// schemaVersion changes whenever a metric is renamed or redefined, so
// -compare can refuse to set two incomparable documents side by side.
const schemaVersion = 1

// environment stamps a report with where and how it was taken.
type environment struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	WindowS    float64 `json:"window_s"`
	TracedS    float64 `json:"traced_s"`
	PeelS      float64 `json:"peel_s"`
	TmpDir     string  `json:"tmp_dir"`
	TmpFS      string  `json:"tmp_fs"`
}

// report is the benchmark's full JSON document.
type report struct {
	SchemaVersion int              `json:"schema_version"`
	Env           environment      `json:"env"`
	Workloads     []workloadReport `json:"workloads"`
}

func stampEnvironment(cfg runConfig) environment {
	env := environment{
		GitCommit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Kernel: "unknown", Clients: clients, Seed: cfg.seed, Rounds: cfg.rounds,
		WindowS: cfg.window.Seconds(), TracedS: cfg.traced.Seconds(), PeelS: cfg.peel.Seconds(),
		TmpDir: cfg.tmp, TmpFS: "unknown",
	}
	// Outside a git checkout (the benchmark driver's copy) this fails and the
	// commit stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	var uts syscall.Utsname
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(cfg.tmp, &fs) == nil {
		env.TmpFS = fsName(int64(fs.Type))
	}
	return env
}

// fsName maps the statfs magic numbers of the filesystems a temp directory
// usually sits on; anything else prints as hex.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}

// correct reports whether every output check of every workload passed.
func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if len(w.Violations) > 0 {
			return false
		}
	}
	return true
}

// writeTable prints every metric by name with its unit: one row per metric,
// one column per workload, median then [min..max] where there are several
// windows.
func (r *report) writeTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wl := range r.Workloads {
		fmt.Fprintf(tw, "%s\t", wl.Name)
	}
	fmt.Fprintln(tw)
	row := func(m metricDef, pick func(workloadReport) map[string]summary) {
		if _, measured := pick(r.Workloads[0])[m.name]; !measured {
			return // per-layer rows of a run without a traced round
		}
		fmt.Fprintf(tw, "%s\t%s\t", m.name, m.unit)
		for _, wl := range r.Workloads {
			s := pick(wl)[m.name]
			switch {
			case s.N > 1:
				fmt.Fprintf(tw, "%.4g [%.4g..%.4g]\t", s.Median, s.Min, s.Max)
			default:
				fmt.Fprintf(tw, "%.4g\t", s.Median)
			}
		}
		fmt.Fprintln(tw)
	}
	for _, m := range endToEnd {
		row(m, func(wl workloadReport) map[string]summary { return wl.EndToEnd })
	}
	for _, m := range perLayer {
		row(m, func(wl workloadReport) map[string]summary { return wl.PerLayer })
	}
	tw.Flush()
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "%s: %d checks ran, %d failed; %d transactions attempted, %d failed\n",
			wl.Name, len(wl.Checks), len(wl.Violations), wl.Attempted, wl.Failed)
		for _, v := range wl.Violations {
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}
	}
}

// resultLine is the one-workload result the benchmark driver reads from the
// last line of standard output: the end-to-end metrics BENCHMARK.json names
// when traced is false, the per-layer metrics when it is true.
func resultLine(r *report, traced bool) ([]byte, error) {
	wl := r.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{wl.PerLayer[m.name].Median, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.gated {
				metrics[m.name] = value{wl.EndToEnd[m.name].Median, m.unit}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), wl.Attempted, wl.Failed, metrics})
	return buf.Bytes(), err
}
