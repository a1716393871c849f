package fleet_test

import (
	"reflect"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/trace"
)

// hetBatteries gives each plant a different battery shape.
var hetBatteries = []int{6, 4}

// hetFleet assembles the heterogeneous two-plant fixture with journaled
// managers rooted at dirs. Returned managers are driven manually so the
// test can restart them mid-day.
func hetFleet(t *testing.T, dirs []string) (*sim.Fleet, []*core.JournaledManager) {
	t.Helper()
	traces := []*trace.Trace{trace.FullSystemHigh(), trace.FullSystemLow()}
	specs := make([]sim.FleetSpec, len(hetBatteries))
	jms := make([]*core.JournaledManager, len(hetBatteries))
	for i, n := range hetBatteries {
		cfg := sim.DefaultConfig(traces[i])
		cfg.BatteryCount = n
		cfg.WindowStart = 9 * time.Hour
		cfg.WindowEnd = 11 * time.Hour
		mcfg := core.DefaultConfig()
		if i == 0 {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		store, err := journal.Open(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		jms[i] = core.NewJournaled(core.New(mcfg, n), store)
		specs[i] = sim.FleetSpec{Config: cfg, Sink: sim.NewSeismicSink(), Manager: jms[i]}
	}
	fl, err := sim.NewFleet(specs)
	if err != nil {
		t.Fatal(err)
	}
	return fl, jms
}

// runHet drives the fleet tick-by-tick. If killAt > 0, both plant
// controllers are killed just before that instant's tick and restarted
// from their journals alone, exactly as a crashed per-site control plane
// would come back.
func runHet(t *testing.T, dirs []string, killAt time.Duration) ([][]sim.Frame, []sim.Result) {
	t.Helper()
	fl, jms := hetFleet(t, dirs)
	lo, hi := fl.Bounds()
	step := fl.Step()
	killed := false
	for tod := lo; tod < hi; tod += step {
		if killAt > 0 && !killed && tod >= killAt {
			killed = true
			for i, jm := range jms {
				if _, err := jm.Restart(fl.System(i), tod, 0); err != nil {
					t.Fatalf("plant %d recovery at %v: %v", i, tod, err)
				}
			}
		}
		for i := range jms {
			if start, end := fl.System(i).Span(); tod >= start && tod < end {
				fl.System(i).Tick(tod, jms[i])
			}
		}
	}
	frames := make([][]sim.Frame, len(jms))
	results := make([]sim.Result, len(jms))
	for i := range jms {
		results[i] = fl.System(i).Finish(jms[i])
		frames[i] = fl.System(i).Recorder().Frames()
		if err := jms[i].Store().Close(); err != nil {
			t.Fatal(err)
		}
	}
	return frames, results
}

// TestHeterogeneousFleetKillResumeBitIdentical checks that a fleet of
// plants with different battery shapes replays bit-identically through
// JournaledManager recovery — kill both controllers mid-day, recover each
// from its own journal, and every recorded frame and result must match the
// uninterrupted twin exactly.
func TestHeterogeneousFleetKillResumeBitIdentical(t *testing.T) {
	dirsA := []string{t.TempDir(), t.TempDir()}
	wantFrames, wantRes := runHet(t, dirsA, 0)

	dirsB := []string{t.TempDir(), t.TempDir()}
	gotFrames, gotRes := runHet(t, dirsB, 10*time.Hour+time.Second)

	for i := range hetBatteries {
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
			t.Errorf("plant %d: kill/resume result diverged\n got: %+v\nwant: %+v", i, gotRes[i], wantRes[i])
		}
		if !reflect.DeepEqual(gotFrames[i], wantFrames[i]) {
			t.Errorf("plant %d: kill/resume trajectory diverged (%d vs %d frames)",
				i, len(gotFrames[i]), len(wantFrames[i]))
		}
	}
}
