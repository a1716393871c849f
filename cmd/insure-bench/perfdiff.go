package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// perf-diff times the perfDiffCases benchmarks in process and compares
// them against a committed BENCH.json. It judges only what one run against
// one other run can decide: a benchmark the base records at 0 allocs/op
// that now allocates. That is structural, the same on every host and every
// rep. Wall-clock deltas are printed for the reader and never judged: two
// back-to-back runs of one unchanged tree on the 2-vCPU Xeon host read
// system_tick +29.5%, plc_scan +42.4% and full_day_insure +135.1%, so a
// threshold on one run each reports the host, not the code.

// perfDiffCases are the benchmarks compared: the hot-path names present in
// every BENCH.json since the suite existed, plus gateway admission and the
// journaled commit.
var perfDiffCases = []string{"system_tick", "plc_scan", "gateway_offer", "journal_commit", "full_day_insure"}

func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func (r *benchReport) benchCase(name string) *benchCase {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// runPerfDiff times the perfDiffCases benchmarks, prints them against the
// report at basePath and returns the number of regressions found.
func runPerfDiff(basePath string) (int, error) {
	base, err := loadBenchReport(basePath)
	if err != nil {
		return 0, err
	}
	cur := &benchReport{Benchmarks: timeBenchmarks(func(name string) bool {
		return slices.Contains(perfDiffCases, name)
	})}
	fmt.Printf("perf-diff: %s (base) vs this tree (new)\n", basePath)
	return perfDiff(os.Stdout, base, cur), nil
}

// perfDiff prints cur against base and returns the number of regressions:
// compared benchmarks whose allocs/op rose above 0 from a base of 0.
func perfDiff(w io.Writer, base, cur *benchReport) int {
	fmt.Fprintf(w, "%-18s %12s %12s %8s  %s\n", "benchmark", "base ns/op", "new ns/op", "delta", "allocs/op")
	regressions := 0
	for _, name := range perfDiffCases {
		b, c := base.benchCase(name), cur.benchCase(name)
		switch {
		case b == nil:
			fmt.Fprintf(w, "%-18s missing from the base report\n", name)
			continue
		case c == nil:
			fmt.Fprintf(w, "%-18s missing from the new report\n", name)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		mark := ""
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			mark = "  REGRESSION: allocates"
			regressions++
		}
		fmt.Fprintf(w, "%-18s %12.0f %12.0f %+7.1f%%  %d -> %d%s\n",
			name, b.NsPerOp, c.NsPerOp, delta*100, b.AllocsPerOp, c.AllocsPerOp, mark)
	}
	if cur.PlantYearsPerSec > 0 && base.PlantYearsPerSec > 0 {
		fmt.Fprintf(w, "%-18s %12.4f %12.4f %+7.1f%%\n", "plant-years/sec",
			base.PlantYearsPerSec, cur.PlantYearsPerSec,
			(cur.PlantYearsPerSec-base.PlantYearsPerSec)/base.PlantYearsPerSec*100)
	}
	if regressions == 0 {
		fmt.Fprintln(w, "no regression: every zero-allocation benchmark still allocates nothing (time deltas are one run each and not judged)")
	} else {
		fmt.Fprintf(w, "%d regression(s): a zero-allocation benchmark allocates\n", regressions)
	}
	return regressions
}
