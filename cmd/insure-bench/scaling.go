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

// scalingPoint is one row of the worker-count scaling matrix.
type scalingPoint struct {
	Workers          int     `json:"workers"`
	Seconds          float64 `json:"seconds"`
	PlantYearsPerSec float64 `json:"plant_years_per_sec"`
	// Speedup is relative to the workers=1 row of the same matrix.
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

// measureScaling runs the campaign once per worker count and assembles the
// matrix plus the gate verdict. Each timing includes one warm-up-free cold
// run; cells dominate wall-clock so JIT-style warm-up effects are noise.
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
	for _, w := range scalingWorkerCounts(procs) {
		t0 := time.Now()
		if _, err := sim.RunCampaign(context.Background(), w, scalingCampaign(cells)); err != nil {
			return campaignScaling{}, fmt.Errorf("scaling campaign at %d workers: %w", w, err)
		}
		secs := time.Since(t0).Seconds()
		pt := scalingPoint{Workers: w, Seconds: secs}
		if secs > 0 {
			pt.PlantYearsPerSec = plantYears / secs
		}
		if base := cs.Points; len(base) > 0 && base[0].Workers == 1 && secs > 0 {
			pt.Speedup = base[0].Seconds / secs
		} else if w == 1 {
			pt.Speedup = 1
		}
		cs.Points = append(cs.Points, pt)
		fmt.Fprintf(os.Stderr, "  workers=%d: %.2fs, %.4f plant-years/sec (speedup %.2fx)\n",
			w, secs, pt.PlantYearsPerSec, pt.Speedup)
	}
	cs.Gate = evaluateGate(cs, procs)
	return cs, nil
}

// evaluateGate applies the acceptance rule: with n ≥ 2 procs, the speedup
// at n workers must reach 0.7·n; with one proc the gate is recorded as
// skipped, never as a pass. n is GOMAXPROCS, not NumCPU: a process held to
// fewer Ps than the host has cores cannot run that many workers at once.
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
	fmt.Printf("%-8s %-10s %-20s %s\n", "workers", "seconds", "plant-years/sec", "speedup")
	for _, pt := range cs.Points {
		fmt.Printf("%-8d %-10.2f %-20.4f %.2fx\n", pt.Workers, pt.Seconds, pt.PlantYearsPerSec, pt.Speedup)
	}
	switch cs.Gate.Status {
	case gateSkipped1CPU:
		fmt.Printf("gate: SKIPPED (GOMAXPROCS 1 — scaling cannot be measured in this process)\n")
	case gatePassed:
		fmt.Printf("gate: PASSED (speedup %.2fx >= required %.2fx at %d workers)\n",
			cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
	case gateFailed:
		fmt.Printf("gate: FAILED (speedup %.2fx < required %.2fx at %d workers)\n",
			cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
		if enforceGate {
			return fmt.Errorf("scaling gate failed: %.2fx < %.2fx at %d workers",
				cs.Gate.MeasuredSpeedup, cs.Gate.RequiredSpeedup, cs.Gate.Workers)
		}
	}
	return nil
}
