package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and the share of the base median it may get worse by.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// failedFracBound is absolute: failed_frac is 0 on a healthy run, so a
// relative bound would have no base.
const failedFracBound = 0.002

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric of one workload: how much worse b's median is
// than a's as a share of the size of a's, against the bound. A side with no
// windows is missing the metric, which counts as a regression: dropping a
// metric must not pass the gate. When the medians agree but either side's
// windows spread (interquartile range over median) wider than the bound, a
// regression of that size could hide in the noise: unresolved, not ok.
func verdict(a, b summary, lowerIsBetter bool, bound float64) (worse float64, v string) {
	if a.N == 0 || b.N == 0 {
		return math.Inf(1), "missing"
	}
	worse = b.Median - a.Median
	if !lowerIsBetter {
		worse = -worse
	}
	// The share is of |a|, so a base below zero (a heap that shrank) keeps
	// its direction; a base of exactly zero has no share and any worsening
	// at all is beyond the bound.
	switch {
	case a.Median != 0:
		worse /= math.Abs(a.Median)
	case worse > 0:
		worse = math.Inf(1)
	}
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	switch {
	case worse > bound:
		return worse, "regressed"
	case spread(a) > bound || spread(b) > bound:
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compare prints one row per workload and end-to-end metric and reports
// whether any regressed. A workload or metric that only one report has is a
// `missing` row and counts as a regression.
func compare(w io.Writer, m manifest, a, b report) (regressed bool, err error) {
	if a.SchemaVersion != b.SchemaVersion {
		return false, fmt.Errorf("schema versions differ: %d vs %d", a.SchemaVersion, b.SchemaVersion)
	}
	if a.Env.Rounds != b.Env.Rounds || a.Env.WindowS != b.Env.WindowS {
		return false, fmt.Errorf("run shapes differ: %d windows of %g s vs %d of %g s",
			a.Env.Rounds, a.Env.WindowS, b.Env.Rounds, b.Env.WindowS)
	}
	names := make([]string, 0, len(a.Workloads))
	inA, inB := make(map[string]workloadReport), make(map[string]workloadReport)
	for _, wl := range a.Workloads {
		inA[wl.Name] = wl
		names = append(names, wl.Name)
	}
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
		if _, ok := inA[wl.Name]; !ok {
			names = append(names, wl.Name)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tworse by\tbound\tverdict")
	for _, name := range names {
		wa, wb := inA[name], inB[name] // a workload one side lacks has no metrics there
		for _, e := range m.EndToEnd {
			worse, v := verdict(wa.EndToEnd[e.Name], wb.EndToEnd[e.Name], e.Better == "lower", e.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%s\n",
				name, e.Name, wa.EndToEnd[e.Name].Median, wb.EndToEnd[e.Name].Median, 100*worse, 100*e.Bound, v)
			regressed = regressed || v == "regressed" || v == "missing"
		}
		sa, sb := wa.EndToEnd["failed_frac"], wb.EndToEnd["failed_frac"]
		v := "ok"
		switch {
		case sa.N == 0 || sb.N == 0:
			v, regressed = "missing", true
		case sb.Median-sa.Median > failedFracBound:
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.5g\t%.5g\t%+.4f\t+%.3f\t%s\n",
			name, sa.Median, sb.Median, sb.Median-sa.Median, failedFracBound, v)
	}
	return regressed, tw.Flush()
}
