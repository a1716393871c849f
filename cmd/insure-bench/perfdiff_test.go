package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPerfDiffVerdict pins what perf-diff judges: a benchmark the base
// records at 0 allocs/op that now allocates is a regression; wall-clock
// swings and allocation drift on a row that already allocates are not.
// The noisy pair is two -bench-json runs of one unchanged tree on the
// 2-vCPU Xeon host.
func TestPerfDiffVerdict(t *testing.T) {
	base := func() *benchReport {
		return &benchReport{
			PlantYearsPerSec: 0.0589,
			Benchmarks: []benchCase{
				{Name: "system_tick", NsPerOp: 733.7},
				{Name: "gateway_offer", NsPerOp: 303.3},
				{Name: "plc_scan", NsPerOp: 333.2},
				{Name: "full_day_insure", NsPerOp: 70997349, AllocsPerOp: 415},
				{Name: "journal_commit", NsPerOp: 82317},
			},
		}
	}
	noisy := base()
	noisy.Benchmarks[0].NsPerOp *= 1.295
	noisy.Benchmarks[2].NsPerOp *= 1.424
	noisy.Benchmarks[3].NsPerOp *= 2.351
	noisy.Benchmarks[3].AllocsPerOp = 417

	tickAllocs := base()
	tickAllocs.Benchmarks[0].AllocsPerOp = 1

	offerAllocs := base()
	offerAllocs.Benchmarks[1].AllocsPerOp = 2

	commitAllocs := base()
	commitAllocs.Benchmarks[4].AllocsPerOp = 1

	cases := []struct {
		name string
		cur  *benchReport
		want int
	}{
		{"unchanged", base(), 0},
		{"noisy pair of one tree", noisy, 0},
		{"system_tick 0 -> 1 allocs/op", tickAllocs, 1},
		{"gateway_offer 0 -> 2 allocs/op", offerAllocs, 1},
		{"journal_commit 0 -> 1 allocs/op", commitAllocs, 1},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		got := perfDiff(&out, base(), tc.cur)
		if got != tc.want {
			t.Errorf("%s: %d regression(s), want %d\n%s", tc.name, got, tc.want, out.String())
		}
		if marks := strings.Count(out.String(), "REGRESSION"); marks != tc.want {
			t.Errorf("%s: %d REGRESSION marks for %d regression(s)\n%s", tc.name, marks, tc.want, out.String())
		}
	}
}
