package core

import (
	"testing"
	"time"

	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

func TestLadderAdjacency(t *testing.T) {
	allowed := [][2]OpMode{
		{ModeNormal, ModeConservative},
		{ModeConservative, ModeNormal},
		{ModeConservative, ModeSurvival},
		{ModeSurvival, ModeConservative},
		{ModeSurvival, ModeBlackout},
		{ModeBlackout, ModeBlackstart},
		{ModeBlackstart, ModeNormal},
		{ModeBlackstart, ModeBlackout}, // storm-returns abort edge
	}
	for _, e := range allowed {
		if !LadderAdjacent(e[0], e[1]) {
			t.Errorf("LadderAdjacent(%s, %s) = false, want true", e[0], e[1])
		}
	}
	forbidden := [][2]OpMode{
		{ModeNormal, ModeSurvival},   // no rung skipping down
		{ModeNormal, ModeBlackout},   // no crash-to-dark
		{ModeBlackout, ModeNormal},   // recovery goes through blackstart
		{ModeSurvival, ModeNormal},   // upgrades also move one rung
		{ModeBlackout, ModeSurvival}, // the ladder is a cycle, not elastic
		{ModeNormal, ModeNormal},
	}
	for _, e := range forbidden {
		if LadderAdjacent(e[0], e[1]) {
			t.Errorf("LadderAdjacent(%s, %s) = true, want false", e[0], e[1])
		}
	}
}

func survivalManagerConfig() Config {
	cfg := DefaultConfig()
	cfg.Survival = DefaultSurvivalConfig()
	return cfg
}

// TestSurvivalStormDayOrderlyDegradation drives the paper's 427 W overcast
// day with the survivability ladder attached and checks the core safety
// properties on the single-day scale (the chaos storm campaign extends
// them to multi-day storms): no VM is ever lost uncheckpointed, the plant
// never crash-brownouts, and every ladder move is between adjacent rungs.
func TestSurvivalStormDayOrderlyDegradation(t *testing.T) {
	cfg := sim.DefaultConfig(trace.LowGeneration())
	cfg.RecordEvery = time.Minute
	// Drained mid-drought posture: with a half-charged bank the ladder now
	// plans its way through this day without ever leaving Normal, so the
	// engagement assertions below need the buffer starting at its floor.
	cfg.InitialSoC = 0.30
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(survivalManagerConfig(), cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	m.AttachTelemetry(reg)

	prev := m.Mode()
	start, end := sys.Span()
	for tod := start; tod < end; tod += time.Second {
		sys.Tick(tod, m)
		if cur := m.Mode(); cur != prev {
			if !LadderAdjacent(prev, cur) {
				t.Fatalf("illegal ladder move %s -> %s at %v", prev, cur, tod)
			}
			prev = cur
		}
	}
	res := sys.Finish(m)

	if res.Brownouts != 0 {
		t.Errorf("survival-managed day crash-browned out %d times", res.Brownouts)
	}
	if res.VMsLost != 0 {
		t.Errorf("lost %d uncheckpointed VMs under survival management", res.VMsLost)
	}
	if res.UptimeFrac <= 0 {
		t.Error("plant never served at all")
	}
	// The overcast day is lean enough that the ladder must have left Normal
	// at least once (and telemetry must agree with the manager).
	if m.ModeTransitions() == 0 {
		t.Error("427 W day produced zero ladder transitions")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["insure_survival_transitions_total"]; got != int64(m.ModeTransitions()) {
		t.Errorf("telemetry transitions = %d, manager says %d", got, m.ModeTransitions())
	}
	if got := snap.Gauges["insure_survival_mode"]; got != float64(m.Mode()) {
		t.Errorf("telemetry mode = %v, manager says %v", got, m.Mode())
	}
}

// TestSurvivalStateRoundTripContinuation extends the crash-recovery
// property test to the v2 state: with the mode machine and its forecast
// estimator attached, State→Restore→State is byte-identical and a restored
// clone tracks the original bit-for-bit through the rest of the day.
func TestSurvivalStateRoundTripContinuation(t *testing.T) {
	mk := func() (*sim.System, *Manager) {
		cfg := sim.DefaultConfig(trace.LowGeneration())
		cfg.RecordEvery = time.Minute
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			t.Fatal(err)
		}
		return sys, New(survivalManagerConfig(), cfg.BatteryCount)
	}
	sysA, mA := mk()
	sysB, mB := mk()
	start, _ := sysA.Span()
	step := time.Second
	mid := start + 5*time.Hour // deep enough that the ladder has moved

	tickRange(sysA, mA, start, mid, step)
	tickRange(sysB, mB, start, mid, step)

	mC := New(survivalManagerConfig(), 6)
	if err := mC.Restore(mA.State()); err != nil {
		t.Fatal(err)
	}
	if string(mC.State()) != string(mA.State()) {
		t.Fatal("State→Restore→State not byte-identical with survival state")
	}
	if mC.Mode() != mA.Mode() {
		t.Fatalf("restored mode %s, original %s", mC.Mode(), mA.Mode())
	}

	for h := 0; h < 4; h++ {
		from := mid + time.Duration(h)*time.Hour
		to := from + time.Hour
		tickRange(sysA, mA, from, to, step)
		tickRange(sysB, mC, from, to, step)
		if string(mA.State()) != string(mC.State()) {
			t.Fatalf("restored survival manager diverged %v into the continuation", to-mid)
		}
	}
	if sysA.Brownouts() != sysB.Brownouts() {
		t.Errorf("brownouts diverged: %d vs %d", sysA.Brownouts(), sysB.Brownouts())
	}
	if mA.Mode() != mC.Mode() {
		t.Errorf("end-of-day modes diverged: %s vs %s", mA.Mode(), mC.Mode())
	}
}

// TestSurvivalRestoreIntoDisabledManagerDrops: the v2 payload of a
// survival-enabled manager restores cleanly into a manager configured
// without the layer — the fields are consumed and discarded, because a
// config change must never be resurrected from disk.
func TestSurvivalRestoreIntoDisabledManagerDrops(t *testing.T) {
	withSv := New(survivalManagerConfig(), 6)
	withSv.sv.mode = ModeSurvival
	withSv.sv.transitions = 3

	plain := New(DefaultConfig(), 6)
	if err := plain.Restore(withSv.State()); err != nil {
		t.Fatalf("v2 payload with survival state failed to restore into disabled manager: %v", err)
	}
	if plain.SurvivalEnabled() {
		t.Error("restore resurrected a disabled survival layer")
	}
	if plain.Mode() != ModeNormal {
		t.Errorf("disabled manager reports mode %s", plain.Mode())
	}
}
