package sim_test

import (
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/plc"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// newSteadySystem builds a full-system plant and advances it into the
// operating window so relays are settled and the cluster is serving.
func newSteadySystem(t *testing.T) (*sim.System, sim.Manager) {
	t.Helper()
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.New(core.DefaultConfig(), cfg.BatteryCount)
	for tod := 5 * time.Hour; tod < 8*time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}
	return sys, mgr
}

// TestTickAllocFree pins the steady-state tick — solar lookup, PLC scan,
// relay query, battery step, workload accounting, recorder capture — at zero
// allocations. The manager is excluded here (its control pass may log mode
// transitions on event boundaries); TestTickWithManagerAllocBound covers it.
func TestTickAllocFree(t *testing.T) {
	sys, _ := newSteadySystem(t)
	tod := 8 * time.Hour
	step := sys.Config().Step
	if n := testing.AllocsPerRun(2000, func() {
		sys.Tick(tod, nil)
		tod += step
	}); n != 0 {
		t.Fatalf("steady-state System.Tick allocates %.2f times per call, want 0", n)
	}
}

// TestScanNowAllocFree pins the wired PLC scan cycle — sensor transduction
// into input registers plus coil-driven relay actuation — at zero
// allocations, for the whole scan and for each hook's block call on its
// own, and checks the scan really published the probes' codes.
func TestScanNowAllocFree(t *testing.T) {
	sys, _ := newSteadySystem(t)
	regs := sys.PLC.Regs
	if n := testing.AllocsPerRun(2000, func() {
		sys.PLC.ScanNow()
	}); n != 0 {
		t.Fatalf("wired PLC.ScanNow allocates %.2f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { sys.PLC.Sample(regs) }); n != 0 {
		t.Fatalf("wired PLC.Sample allocates %.2f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { sys.PLC.Actuate(regs) }); n != 0 {
		t.Fatalf("wired PLC.Actuate allocates %.2f times per call, want 0", n)
	}
	n := sys.Config().BatteryCount
	img, err := regs.ReadInput(plc.InputVoltBase, uint16(2*n))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sys.Probes {
		if img[plc.InputVolt(i)] != p.Volt.Raw() || img[plc.InputCurrent(i)] != p.Current.Raw() {
			t.Errorf("unit %d: registers %d/%d, probe codes %d/%d", i,
				img[plc.InputVolt(i)], img[plc.InputCurrent(i)], p.Volt.Raw(), p.Current.Raw())
		}
	}
}

// TestTickWithTelemetryAllocFree pins the instrumented steady-state tick at
// zero allocations: publishing gauges, observing the scan-duration and
// settle histograms, and advancing the registry clock are all atomic ops on
// instruments resolved at attach time.
func TestTickWithTelemetryAllocFree(t *testing.T) {
	sys, _ := newSteadySystem(t)
	sys.AttachTelemetry(telemetry.NewRegistry())
	tod := 8 * time.Hour
	step := sys.Config().Step
	if n := testing.AllocsPerRun(2000, func() {
		sys.Tick(tod, nil)
		tod += step
	}); n != 0 {
		t.Fatalf("instrumented System.Tick allocates %.2f times per call, want 0", n)
	}
}

// TestTickWithJournalingAllocBound proves attaching the crash-safe journal
// does not break the hot-path allocation budget: every control pass encodes
// the full manager state into a reused buffer and frames it into the
// store's reused buffer, so the journaled tick stays under the same
// amortised bound as the bare managed tick. Sync is disabled — fsync cost
// is I/O, not allocation, and the smoke targets cover the synced path.
func TestTickWithJournalingAllocBound(t *testing.T) {
	sys, _ := newSteadySystem(t)
	store, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Sync = false
	mgr := core.NewJournaled(core.New(core.DefaultConfig(), sys.Config().BatteryCount), store)
	// Warm the wrapper into steady state (first commits size the buffers).
	tod := 8 * time.Hour
	step := sys.Config().Step
	for i := 0; i < 120; i++ {
		sys.Tick(tod, mgr)
		tod += step
	}
	if n := testing.AllocsPerRun(3000, func() {
		sys.Tick(tod, mgr)
		tod += step
	}); n > 0.5 {
		t.Fatalf("journaled System.Tick allocates %.2f times per call, want <= 0.5", n)
	}
	if err := mgr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTickWithManagerAllocBound runs the full tick including the InSURE
// control pass and bounds the amortised allocation rate: control fires every
// 30 ticks and may append to the logbook on relay-mode transitions, but the
// steady path must stay far below one allocation per tick.
func TestTickWithManagerAllocBound(t *testing.T) {
	sys, mgr := newSteadySystem(t)
	tod := 8 * time.Hour
	step := sys.Config().Step
	if n := testing.AllocsPerRun(3000, func() {
		sys.Tick(tod, mgr)
		tod += step
	}); n > 0.5 {
		t.Fatalf("managed System.Tick allocates %.2f times per call, want <= 0.5", n)
	}
}

// TestTickWithSurvivalAllocBound attaches the survivability mode machine
// (including its forecast estimator and the horizon scans it runs every
// control pass) and holds the managed tick to the same amortised bound:
// the emergency ladder must cost the hot path nothing at steady state.
func TestTickWithSurvivalAllocBound(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, cfg.BatteryCount)
	sys.AttachTelemetry(telemetry.NewRegistry())
	for tod := 5 * time.Hour; tod < 8*time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}
	tod := 8 * time.Hour
	if n := testing.AllocsPerRun(3000, func() {
		sys.Tick(tod, mgr)
		tod += cfg.Step
	}); n > 0.5 {
		t.Fatalf("survival-managed System.Tick allocates %.2f times per call, want <= 0.5", n)
	}
}
