package chaos

import (
	"testing"

	"insure/internal/core"
)

// TestStormSurvivalClean is the acceptance storm: three seeded
// low-generation days with the survivability ladder and a diesel genset
// fitted. The storm must actually push the plant into the emergency ladder
// (transitions observed) and come out with zero crash-brownouts and zero
// uncheckpointed VM loss.
func TestStormSurvivalClean(t *testing.T) {
	cfg := DefaultStormConfig(2015)
	cfg.Survival = true
	cfg.Genset = true
	rep, err := RunStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.Brownouts != 0 || rep.VMsLost != 0 {
		t.Errorf("seed %d: survival storm not clean: %d brownouts, %d VMs lost",
			cfg.Seed, rep.Brownouts, rep.VMsLost)
	}
	if rep.ModeTransitions == 0 {
		t.Errorf("seed %d: storm never engaged the ladder; darken the trace", cfg.Seed)
	}
	if rep.MeanUptime <= 0 {
		t.Errorf("seed %d: plant never served", cfg.Seed)
	}
	if rep.GenStarts == 0 {
		t.Errorf("seed %d: storm never dispatched the genset; deepen the trough", cfg.Seed)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x0f8a7d12cd3a1ccc)
}

// TestStormBaselineRecordsDamage drives the identical weather through the
// vanilla InSURE manager. Without the ladder the storm must cost something
// — crash-brownouts and VMs lost with their working state — or the
// survivability comparison proves nothing.
func TestStormBaselineRecordsDamage(t *testing.T) {
	cfg := DefaultStormConfig(2015)
	rep, err := RunStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.Brownouts == 0 {
		t.Errorf("seed %d: baseline storm recorded no brownouts; darken the trace", cfg.Seed)
	}
	if rep.VMsLost == 0 {
		t.Errorf("seed %d: baseline storm lost no VMs; darken the trace", cfg.Seed)
	}
	if rep.ModeTransitions != 0 || rep.FinalMode != core.ModeNormal {
		t.Errorf("seed %d: baseline storm reported ladder activity: %v", cfg.Seed, rep)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x6f8068753b91e4c5)
}

// TestStormKillMidEmergency hard-kills the journaled controller on the
// storm's deepest day, at a control boundary spent in an emergency rung,
// and recovers it. The recovered controller must land in the same rung and
// the interrupted storm must finish bit-identically with its uninterrupted
// twin — trajectory hash, final rung, and ladder-move count all equal.
func TestStormKillMidEmergency(t *testing.T) {
	cfg := DefaultStormConfig(2015)
	cfg.Survival = true
	cfg.Genset = true
	cfg.KillDay = 1
	cfg.StateDir = t.TempDir()
	rep, err := RunStorm(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.Recoveries != 1 {
		t.Errorf("seed %d: %d recoveries, want exactly 1", cfg.Seed, rep.Recoveries)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x0f8a7d12cd3a1ccc)
}
