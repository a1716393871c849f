package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// TestOutlookSurface exercises the energy-outlook view the serving gateway
// admits against: MeanSoC matches the controller's own per-unit estimates,
// and the forecast falls back to the fixed cloud margin when disabled.
func TestOutlookSurface(t *testing.T) {
	cfg := sim.DefaultConfig(trace.LowGeneration())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(), cfg.BatteryCount) // forecast off
	start, _ := sys.Span()
	for tod := start; tod < start+30*time.Minute; tod += time.Second {
		sys.Tick(tod, m)
	}
	now := start + 30*time.Minute

	soc := m.MeanSoC(sys)
	if soc <= 0 || soc > 1 {
		t.Fatalf("MeanSoC = %v, want (0, 1]", soc)
	}
	var sum float64
	for i := 0; i < cfg.BatteryCount; i++ {
		sum += sys.EstimatedSoC(i)
	}
	if want := sum / float64(cfg.BatteryCount); soc != want {
		t.Fatalf("MeanSoC %v != mean of per-unit estimates %v", soc, want)
	}

	// Forecast disabled: the conservative fallback is the fixed 25% cloud
	// margin on the present supply.
	if got, want := m.ForecastSupplyW(sys, now), 0.75*float64(sys.SolarNow()); got != want {
		t.Fatalf("fallback forecast %v, want %v", got, want)
	}

	// Forecast enabled: after observing the morning, the estimator must
	// produce a finite, non-negative prediction.
	mf := New(survivalManagerConfig(), cfg.BatteryCount)
	sysf, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	for tod := start; tod < start+30*time.Minute; tod += time.Second {
		sysf.Tick(tod, mf)
	}
	if got := mf.ForecastSupplyW(sysf, now+time.Hour); got < 0 {
		t.Fatalf("estimator forecast %v, want >= 0", got)
	}
}

// TestLadderPublishesOpModeToHealthz drives the overcast survival day and
// checks every ladder transition lands in the registry's operating-mode
// surface — the /healthz coupling: mode name always current, draining
// exactly while the plant is at Blackout.
func TestLadderPublishesOpModeToHealthz(t *testing.T) {
	cfg := sim.DefaultConfig(trace.LowGeneration())
	cfg.InitialSoC = 0.30
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(survivalManagerConfig(), cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	m.AttachTelemetry(reg)

	if mode, draining := reg.OpMode(); mode != "normal" || draining {
		t.Fatalf("initial published mode %q draining=%v, want normal/false", mode, draining)
	}
	sawDraining := false
	start, end := sys.Span()
	for tod := start; tod < end; tod += time.Second {
		sys.Tick(tod, m)
		mode, draining := reg.OpMode()
		if want := m.Mode().String(); mode != want {
			t.Fatalf("at %v: published mode %q, manager says %q", tod, mode, want)
		}
		if wantDrain := m.Mode() == ModeBlackout; draining != wantDrain {
			t.Fatalf("at %v: draining=%v in mode %s", tod, draining, m.Mode())
		}
		sawDraining = sawDraining || draining
	}
	sys.Finish(m)
	if m.ModeTransitions() == 0 {
		t.Fatal("fixture never engaged the ladder; the test proved nothing")
	}
	if !sawDraining {
		t.Log("note: day ended without reaching Blackout; draining path covered elsewhere")
	}
}

// recomputedMeanSoC is MeanSoC without its memo: the index-order mean of
// EstimatedSoC over the units Quarantined leaves in.
func recomputedMeanSoC(m *Manager, sys *sim.System) float64 {
	var sum float64
	n := 0
	for i, q := range m.Quarantined() {
		if q {
			continue
		}
		sum += sys.EstimatedSoC(i)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// checkMeanSoC compares MeanSoC with the recomputation bit for bit. It
// reads MeanSoC first, so a memo that misses an invalidation answers from
// it before the recomputation's readings can refresh a fieldbus image.
func checkMeanSoC(t *testing.T, at string, m *Manager, sys *sim.System) {
	t.Helper()
	got := m.MeanSoC(sys)
	if want := recomputedMeanSoC(m, sys); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MeanSoC %v, recomputed %v", at, got, want)
	}
}

// TestMeanSoCMemoExact proves MeanSoC's memo key complete on a faulted,
// survival-armed day: a stuck current transducer, a drifting voltage
// transducer and a mid-day capacity loss, so units are quarantined, plus
// one mid-day Restore of a State taken before any quarantine. MeanSoC must
// equal the uncached recomputation twice after every tick: once after the
// plant moved, once more from the memo.
//
// A control pass ends with a PLC scan (applyModes), so the quarantines it
// writes also move the readings generation. The test therefore ends by
// quarantining one more unit between ticks, where only the quarantine's own
// invalidation keeps the memo exact.
func TestMeanSoCMemoExact(t *testing.T) {
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(survivalManagerConfig(), sys.Bank.Size())
	wireInjector(t, sys, "stick:0@10h,drift:1@11h:1.5,bat:2@12h30m:0.6")

	const saveAt, restoreAt = 10*time.Hour + 30*time.Minute, 14 * time.Hour
	var saved []byte
	start, end := sys.Span()
	for tod := start; tod < end; tod += sys.Config().Step {
		sys.Tick(tod, m)
		checkMeanSoC(t, fmt.Sprintf("after the tick at %v", tod), m, sys)
		checkMeanSoC(t, fmt.Sprintf("again after the tick at %v", tod), m, sys)
		switch tod {
		case saveAt:
			if m.QuarantinedCount() != 0 {
				t.Fatalf("units quarantined before the save at %v", tod)
			}
			saved = m.State()
		case restoreAt:
			if m.QuarantinedCount() == 0 {
				t.Fatal("no unit quarantined before the restore; the restore would prove nothing")
			}
			if err := m.Restore(saved); err != nil {
				t.Fatal(err)
			}
			checkMeanSoC(t, fmt.Sprintf("after the restore at %v", tod), m, sys)
		}
	}
	if len(m.FaultEvents()) < 2 {
		t.Fatalf("fault events %v: want the faulted units quarantined again after the restore", m.FaultEvents())
	}

	before := m.MeanSoC(sys)
	unit := -1
	for i, q := range m.Quarantined() {
		if !q && sys.EstimatedSoC(i) != before {
			unit = i
			break
		}
	}
	if unit < 0 {
		t.Fatal("no healthy unit reads off the mean; a quarantine would prove nothing")
	}
	m.quarantine(sys, end, unit, "memo test")
	checkMeanSoC(t, fmt.Sprintf("after quarantining unit %d", unit), m, sys)
}

// TestMeanSoCMemoExactRemote covers the fieldbus image. Plant a's manager
// memoizes its own plant's mean, then a connects to plant b's panel: the
// image install that follows changes a's readings without a scan of a, and
// the next MeanSoC must see b's codes. The two plants then tick on, a's
// manager steering b over the fieldbus, with MeanSoC checked twice after
// every tick.
func TestMeanSoCMemoExactRemote(t *testing.T) {
	a := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	cfgB := sim.DefaultConfig(trace.FullSystemHigh())
	cfgB.InitialSoC = 0.8
	b, err := sim.New(cfgB, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(survivalManagerConfig(), a.Bank.Size())
	start, _ := a.Span()
	step := a.Config().Step
	tod := start
	for ; tod < start+time.Hour; tod += step {
		a.Tick(tod, m)
		b.Tick(tod, nil)
	}
	checkMeanSoC(t, "on the local plant", m, a)
	local := m.MeanSoC(a)

	addr, stopServer, err := b.ServePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer stopServer()
	_, stopClient, err := a.ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopClient()
	checkMeanSoC(t, "after connecting to the remote panel", m, a)
	if m.MeanSoC(a) == local {
		t.Fatal("the remote panel reads the same mean as the local plant; the install would prove nothing")
	}

	for end := tod + 30*time.Minute; tod < end; tod += step {
		b.Tick(tod, nil)
		checkMeanSoC(t, fmt.Sprintf("after plant b's tick at %v", tod), m, a)
		a.Tick(tod, m)
		checkMeanSoC(t, fmt.Sprintf("after the tick at %v", tod), m, a)
		checkMeanSoC(t, fmt.Sprintf("again after the tick at %v", tod), m, a)
	}
}
