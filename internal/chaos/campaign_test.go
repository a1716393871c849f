package chaos

import (
	"testing"
	"time"
)

// TestPlanDeterministicAndSpaced locks the plan generator: same seed, same
// plan; events far enough apart that every recovery commits fresh state
// before the next hit; destructive damage capped.
func TestPlanDeterministicAndSpaced(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.Events = 120
	cfg.Remote = true
	a, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Events || len(b) != cfg.Events {
		t.Fatalf("plan sizes %d/%d, want %d", len(a), len(b), cfg.Events)
	}
	hardware := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across same-seed plans: %v vs %v", i, a[i], b[i])
		}
		if i > 0 {
			if gap := a[i].At - a[i-1].At; gap < time.Minute {
				t.Fatalf("events %d and %d only %v apart", i-1, i, gap)
			}
		}
		if a[i].Kind == HardwareFault {
			hardware++
		}
	}
	if hardware > maxHardwareFaults {
		t.Fatalf("%d hardware faults, cap is %d", hardware, maxHardwareFaults)
	}

	cfg2 := cfg
	cfg2.Seed = 8
	c, err := Plan(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical plans")
	}

	cfg.Events = 10000
	if _, err := Plan(cfg); err == nil {
		t.Fatal("overdense plan accepted")
	}
}

// TestCampaignSmoke is the quick in-process campaign `make smoke-chaos`
// runs: kills and plant faults (no fieldbus), every invariant checked.
func TestCampaignSmoke(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Events = 40
	cfg.StateDir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	assertClean(t, rep)
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x7831eb44fe8e660b)
	pinHash(t, "reference", rep.RefTrajectory, 0x7831eb44fe8e660b)
}

// TestCampaignFieldbusAndReplay is the full acceptance campaign: 200+
// seeded events over the Modbus control path with partitions through the
// FlakyProxy — and then the entire campaign again from the same seed,
// which must reproduce the chaos trajectory bit-for-bit.
func TestCampaignFieldbusAndReplay(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Events = 200
	cfg.Remote = true
	cfg.StateDir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	assertClean(t, rep)
	if rep.Partitions == 0 {
		t.Errorf("seed %d: campaign drew no partitions; pick a seed that exercises the fieldbus", cfg.Seed)
	}
	if rep.Events < 200 {
		t.Errorf("seed %d: only %d events", cfg.Seed, rep.Events)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x6b7befcd149f927a)
	pinHash(t, "reference", rep.RefTrajectory, 0xd29dc0793478d679)

	cfg.StateDir = t.TempDir()
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d rerun: %v", cfg.Seed, err)
	}
	if rep2.TrajectoryHash != rep.TrajectoryHash {
		t.Errorf("seed %d: rerun diverged: trajectory %x vs %x", cfg.Seed, rep2.TrajectoryHash, rep.TrajectoryHash)
	}
	if rep2.RefTrajectory != rep.RefTrajectory {
		t.Errorf("seed %d: reference rerun diverged: %x vs %x", cfg.Seed, rep2.RefTrajectory, rep.RefTrajectory)
	}
	if rep2.Recoveries != rep.Recoveries || rep2.Reconciliations != rep.Reconciliations {
		t.Errorf("seed %d: rerun recovery path diverged: %d/%d recoveries, %d/%d reconciliations",
			cfg.Seed, rep2.Recoveries, rep.Recoveries, rep2.Reconciliations, rep.Reconciliations)
	}
}

// pinHash fails the test when a campaign's same-seed hash has moved. The
// pinned values are the campaigns' recorded behaviour; a refactor of the
// harness must leave every one of them unchanged.
func pinHash(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s hash %016x, pinned %016x", what, got, want)
	}
}

// assertClean checks the campaign outcome against the harness's promises.
func assertClean(t *testing.T, rep *Report) {
	t.Helper()
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	kills := rep.Kills + rep.TornKills
	if rep.Recoveries != kills {
		t.Errorf("seed %d: %d recoveries for %d kills", rep.Seed, rep.Recoveries, kills)
	}
	if rep.TornKills > 0 && rep.Reconciliations == 0 {
		t.Errorf("seed %d: %d torn kills but no reconciliations", rep.Seed, rep.TornKills)
	}
	if !rep.Converged {
		t.Errorf("seed %d: chaos day did not converge: %v", rep.Seed, rep)
	}
}
