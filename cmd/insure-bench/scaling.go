package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/trace"
)

// The campaign-scaling harness: the headline performance number of the
// simulator is simulated plant-years per wall-clock second, and this file
// measures how it scales with worker count over a fixed campaign of
// independent full-day plant cells.

// hoursPerYear uses the mean Gregorian year, matching the service-life
// arithmetic elsewhere (365-day years would overstate plant-years by 0.07%).
const hoursPerYear = 8766.0

// gate outcomes for the workers-scaling check.
const (
	gatePassed      = "passed"
	gateFailed      = "failed"
	gateSkipped1CPU = "skipped-single-cpu"
)

// scalingRuns is how many times the campaign runs at each worker count.
// Gating on the median of three, with the counts taking turns, keeps one
// stalled run from deciding the verdict.
const scalingRuns = 3

// scalingPoint is one row of the worker-count scaling matrix. Seconds is
// the median of the row's runs and MinSeconds..MaxSeconds their spread;
// PlantYearsPerSec follows from the median.
type scalingPoint struct {
	Workers          int     `json:"workers"`
	Runs             int     `json:"runs"`
	Seconds          float64 `json:"seconds"`
	MinSeconds       float64 `json:"min_seconds"`
	MaxSeconds       float64 `json:"max_seconds"`
	PlantYearsPerSec float64 `json:"plant_years_per_sec"`
	// Speedup is the workers=1 row's median over this row's median.
	Speedup float64 `json:"speedup"`
}

// scalingGate records the `make check` speedup gate verdict. On a 1-CPU
// machine the gate cannot be measured, and Status says so explicitly —
// a single-core box must never report a meaningless speedup as a pass.
type scalingGate struct {
	Status          string  `json:"status"`
	Workers         int     `json:"workers"`
	RequiredSpeedup float64 `json:"required_speedup,omitempty"`
	MeasuredSpeedup float64 `json:"measured_speedup,omitempty"`
}

// campaignScaling is the BENCH.json section holding the full matrix.
type campaignScaling struct {
	Cells            int            `json:"cells"`
	NumCPU           int            `json:"num_cpu"`
	PlantYearsPerRun float64        `json:"plant_years_per_run"`
	Points           []scalingPoint `json:"points"`
	Gate             scalingGate    `json:"gate"`
}

// scalingCampaign builds the fixed workload: `cells` independent full-day
// plants alternating trace and manager, all Transient so each worker's
// arena recycles recorders and shares solar LUTs across its cells.
func scalingCampaign(cells int) []sim.CampaignRun {
	traces := []*trace.Trace{trace.FullSystemHigh(), trace.FullSystemLow()}
	runs := make([]sim.CampaignRun, cells)
	for i := range runs {
		i := i
		runs[i] = sim.CampaignRun{
			Name:      fmt.Sprintf("scale/cell%03d", i),
			Transient: true,
			Setup: func(a *sim.Arena) (*sim.System, sim.Manager, error) {
				cfg := sim.DefaultConfig(traces[i%len(traces)])
				cfg.Arena = a
				sys, err := sim.New(cfg, sim.NewSeismicSink())
				if err != nil {
					return nil, nil, err
				}
				if i%2 == 0 {
					return sys, core.New(core.DefaultConfig(), cfg.BatteryCount), nil
				}
				return sys, baseline.New(baseline.DefaultConfig()), nil
			},
		}
	}
	return runs
}

// campaignPlantYears computes the simulated plant-time of the campaign in
// years: cells × the span of one full-day run.
func campaignPlantYears(cells int) (float64, error) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		return 0, err
	}
	start, end := sys.Span()
	return float64(cells) * (end - start).Hours() / hoursPerYear, nil
}

// scalingWorkerCounts is the measured ladder: 1, 2, 4, and procs, deduped,
// capped at procs — the GOMAXPROCS the runtime will actually run workers on
// (more workers than that measures scheduler noise, not scaling).
func scalingWorkerCounts(procs int) []int {
	set := map[int]bool{1: true}
	for _, w := range []int{2, 4, procs} {
		if w >= 2 && w <= procs {
			set[w] = true
		}
	}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// scalingOrder is the sequence of worker counts to run: runs rounds over
// counts, ascending in even rounds and descending in odd ones, so drift in
// the host's speed over the measurement falls on every count alike.
func scalingOrder(counts []int, runs int) []int {
	var out []int
	for r := 0; r < runs; r++ {
		for i := range counts {
			j := i
			if r%2 == 1 {
				j = len(counts) - 1 - i
			}
			out = append(out, counts[j])
		}
	}
	return out
}

// spread returns the median, minimum and maximum of xs, which must not be
// empty; an even count's median is the mean of the middle two.
func spread(xs []float64) (med, lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return med, s[0], s[n-1]
}

// measureScaling runs the campaign scalingRuns times per worker count, in
// scalingOrder, and assembles the matrix of medians plus the gate verdict
// on the median speedup.
func measureScaling(cells int) (campaignScaling, error) {
	plantYears, err := campaignPlantYears(cells)
	if err != nil {
		return campaignScaling{}, err
	}
	cs := campaignScaling{
		Cells:            cells,
		NumCPU:           runtime.NumCPU(),
		PlantYearsPerRun: plantYears,
	}
	procs := runtime.GOMAXPROCS(0)
	counts := scalingWorkerCounts(procs)
	secs := map[int][]float64{}
	for _, w := range scalingOrder(counts, scalingRuns) {
		t0 := time.Now()
		if _, err := sim.RunCampaign(context.Background(), w, scalingCampaign(cells)); err != nil {
			return campaignScaling{}, fmt.Errorf("scaling campaign at %d workers: %w", w, err)
		}
		d := time.Since(t0).Seconds()
		secs[w] = append(secs[w], d)
		fmt.Fprintf(os.Stderr, "  workers=%d run %d: %.2fs\n", w, len(secs[w]), d)
	}
	// counts starts at 1, so Points[0] is the workers=1 row.
	for _, w := range counts {
		med, lo, hi := spread(secs[w])
		pt := scalingPoint{Workers: w, Runs: len(secs[w]), Seconds: med, MinSeconds: lo, MaxSeconds: hi, Speedup: 1}
		if med > 0 {
			pt.PlantYearsPerSec = plantYears / med
			if w > 1 {
				pt.Speedup = cs.Points[0].Seconds / med
			}
		}
		cs.Points = append(cs.Points, pt)
	}
	cs.Gate = evaluateGate(cs, procs)
	return cs, nil
}

// evaluateGate applies the acceptance rule: with n ≥ 2 procs, the median
// speedup at n workers must reach 0.7·n; with one proc the gate is
// recorded as skipped, never as a pass. n is GOMAXPROCS, not NumCPU: a
// process held to fewer Ps than the host has cores cannot run that many
// workers at once.
func evaluateGate(cs campaignScaling, n int) scalingGate {
	if n < 2 {
		return scalingGate{Status: gateSkipped1CPU, Workers: 1}
	}
	g := scalingGate{Workers: n, RequiredSpeedup: 0.7 * float64(n)}
	for _, pt := range cs.Points {
		if pt.Workers == n {
			g.MeasuredSpeedup = pt.Speedup
		}
	}
	if g.MeasuredSpeedup >= g.RequiredSpeedup {
		g.Status = gatePassed
	} else {
		g.Status = gateFailed
	}
	return g
}

// runScaling is the -scaling entry point: print the curve, and with
// enforceGate make the process exit non-zero on a failed gate so `make
// check` trips.
func runScaling(cells int, enforceGate bool) error {
	fmt.Fprintf(os.Stderr, "campaign scaling: %d full-day cells, %d CPU(s), GOMAXPROCS %d\n",
		cells, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	cs, err := measureScaling(cells)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-16s %-16s %-20s %s\n", "workers", "median seconds", "min..max", "plant-years/sec", "speedup")
	for _, pt := range cs.Points {
		fmt.Printf("%-8d %-16.2f %-16s %-20.4f %.2fx\n", pt.Workers, pt.Seconds,
			fmt.Sprintf("%.2f..%.2f", pt.MinSeconds, pt.MaxSeconds), pt.PlantYearsPerSec, pt.Speedup)
	}
	switch cs.Gate.Status {
	case gateSkipped1CPU:
		fmt.Printf("gate: SKIPPED (GOMAXPROCS 1 — scaling cannot be measured in this process)\n")
	case gatePassed:
		fmt.Printf("gate: PASSED (median speedup %.2fx >= required %.2fx at %d workers)\n",
			cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
	case gateFailed:
		fmt.Printf("gate: FAILED (median speedup %.2fx < required %.2fx at %d workers)\n",
			cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
		if enforceGate {
			return fmt.Errorf("scaling gate failed: median %.2fx < %.2fx at %d workers",
				cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
		}
	}
	return nil
}
