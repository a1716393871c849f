package sim_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/trace"
)

// fleetSpecs builds n plants with per-plant variation (trace and manager
// alternate) over a trimmed window so the test stays fast.
func fleetSpecs(n int) []sim.FleetSpec {
	traces := []*trace.Trace{trace.FullSystemHigh(), trace.FullSystemLow()}
	specs := make([]sim.FleetSpec, n)
	for i := range specs {
		cfg := sim.DefaultConfig(traces[i%len(traces)])
		cfg.WindowStart = 9 * time.Hour
		cfg.WindowEnd = 11 * time.Hour
		var mgr sim.Manager
		if i%2 == 0 {
			mgr = core.New(core.DefaultConfig(), cfg.BatteryCount)
		} else {
			mgr = baseline.New(baseline.DefaultConfig())
		}
		specs[i] = sim.FleetSpec{Config: cfg, Sink: sim.NewSeismicSink(), Manager: mgr}
	}
	return specs
}

// TestFleetMatchesSerialRuns is the Fleet determinism oracle: the
// interleaved batch tick must reproduce, result for result, what each plant
// produces when run alone.
func TestFleetMatchesSerialRuns(t *testing.T) {
	const n = 4

	want := make([]sim.Result, n)
	for i, spec := range fleetSpecs(n) {
		sys, err := sim.New(spec.Config, spec.Sink)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Run(spec.Manager)
	}

	fleet, err := sim.NewFleet(fleetSpecs(n))
	if err != nil {
		t.Fatal(err)
	}
	got := fleet.Run()

	if len(got) != n {
		t.Fatalf("fleet returned %d results, want %d", len(got), n)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("plant %d: fleet result differs from solo run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// TestFleetHeterogeneousFallsBackToPrivateStores checks a fleet whose plants
// differ in bank size matches their solo runs.
func TestFleetHeterogeneousFallsBackToPrivateStores(t *testing.T) {
	specs := fleetSpecs(2)
	specs[1].Config.BatteryCount = 4 // a different bank size

	want := make([]sim.Result, len(specs))
	for i, spec := range specs {
		sys, err := sim.New(spec.Config, spec.Sink)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Run(spec.Manager)
	}

	specs = fleetSpecs(2)
	specs[1].Config.BatteryCount = 4
	fleet, err := sim.NewFleet(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range fleet.Run() {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("plant %d: fleet result differs from solo run", i)
		}
	}
}

func TestFleetSimulatedTime(t *testing.T) {
	fleet, err := sim.NewFleet(fleetSpecs(3))
	if err != nil {
		t.Fatal(err)
	}
	start, end := fleet.System(0).Span()
	if got, want := fleet.SimulatedTime(), 3*(end-start); got != want {
		t.Fatalf("SimulatedTime = %v, want %v", got, want)
	}
}

func TestFleetRejectsMismatchedSteps(t *testing.T) {
	specs := fleetSpecs(2)
	specs[1].Config.Step = 2 * time.Second
	_, err := sim.NewFleet(specs)
	if err == nil {
		t.Fatal("want error for mismatched steps")
	}
	// The message must name both steps so a caller assembling N specs can
	// see which value is the odd one out.
	if want := "disagree on step (2s vs 1s)"; !strings.Contains(err.Error(), want) {
		t.Errorf("step-mismatch error %q does not contain %q", err, want)
	}
}

// TestFleetRejectsNilSpecs covers the per-index Sink and Manager
// validation: a nil Sink would panic deep inside sim.New, and a nil
// Manager would silently run the plant unmanaged; both must be named by
// plant index.
func TestFleetRejectsNilSpecs(t *testing.T) {
	specs := fleetSpecs(3)
	specs[2].Sink = nil
	_, err := sim.NewFleet(specs)
	if err == nil {
		t.Fatal("want error for nil Sink")
	}
	if want := "plant 2 has a nil Sink"; !strings.Contains(err.Error(), want) {
		t.Errorf("nil-sink error %q does not contain %q", err, want)
	}

	specs = fleetSpecs(3)
	specs[1].Manager = nil
	_, err = sim.NewFleet(specs)
	if err == nil {
		t.Fatal("want error for nil Manager")
	}
	if want := "plant 1 has a nil Manager"; !strings.Contains(err.Error(), want) {
		t.Errorf("nil-manager error %q does not contain %q", err, want)
	}
}
