package chaos

import (
	"testing"
)

// TestSiteLossMigrationHandsOffStorm is the federation acceptance bar: a
// three-day storm parked over one of three sites, migration armed. The
// darkened site must hand its deferred batch work to the sunny sites, the
// sunny sites must finish it, and no VM anywhere may be lost
// uncheckpointed.
func TestSiteLossMigrationHandsOffStorm(t *testing.T) {
	cfg := DefaultSiteLossConfig(2015)
	cfg.Migration = true
	cfg.LogDir = t.TempDir()
	rep, err := RunSiteLoss(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.VMsLost != 0 {
		t.Errorf("seed %d: federated storm lost %d VMs with migration armed", cfg.Seed, rep.VMsLost)
	}
	if rep.MigratedGB <= 0 || rep.Migrations == 0 {
		t.Errorf("seed %d: storm site migrated nothing; darken the trace", cfg.Seed)
	}
	if rep.StormBacklogGB > 0 {
		t.Errorf("seed %d: storm site ended with %.1f GB deferred", cfg.Seed, rep.StormBacklogGB)
	}
	if rep.CompletedAwayGB <= 0 {
		t.Errorf("seed %d: surplus sites completed none of the migrated work", cfg.Seed)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x9cfbf5a2f0c20ab7)
}

// TestSiteLossBaselineRecordsDamage drives the identical fleet and weather
// with migration off: the pre-federation plants. The storm must cost the
// darkened site real VM losses, or the migration comparison proves
// nothing.
func TestSiteLossBaselineRecordsDamage(t *testing.T) {
	cfg := DefaultSiteLossConfig(2015)
	rep, err := RunSiteLoss(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.VMsLost == 0 {
		t.Errorf("seed %d: baseline fleet lost no VMs; darken the trace", cfg.Seed)
	}
	if rep.Migrations != 0 || rep.MigratedGB != 0 {
		t.Errorf("seed %d: migration-off fleet reported shipments: %v", cfg.Seed, rep)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x3bf378c27f591ff1)
}

// TestSiteLossDeterministic reruns the migration campaign with the same
// seed: the whole fleet — every plant trajectory and every shipment — must
// reproduce exactly.
func TestSiteLossDeterministic(t *testing.T) {
	cfg := DefaultSiteLossConfig(7)
	cfg.Migration = true
	a, err := RunSiteLoss(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	b, err := RunSiteLoss(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	if a.TrajectoryHash != b.TrajectoryHash {
		t.Errorf("seed %d: trajectories diverged: %x vs %x", cfg.Seed, a.TrajectoryHash, b.TrajectoryHash)
	}
	if a.String() != b.String() {
		t.Errorf("seed %d: reports diverged:\n 1st: %v\n 2nd: %v", cfg.Seed, a, b)
	}
	pinHash(t, "trajectory", a.TrajectoryHash, 0x91dc09965bda686c)
}

// TestSiteLossHardFailure turns the storm into a total site loss on the
// final day: the storm site dies at 15h with its in-flight resources, the
// survivors keep running, and the loss is journaled.
func TestSiteLossHardFailure(t *testing.T) {
	cfg := DefaultSiteLossConfig(2015)
	cfg.Migration = true
	cfg.FailDay = cfg.Days - 1
	cfg.LogDir = t.TempDir()
	rep, err := RunSiteLoss(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	t.Log(rep)
	if rep.ViolationCount > 0 {
		t.Errorf("%v\nfirst violations: %v", rep, rep.Violations)
	}
	if rep.SitesLost != 1 {
		t.Errorf("seed %d: SitesLost = %d, want 1", cfg.Seed, rep.SitesLost)
	}
	if rep.MigratedGB <= 0 {
		t.Errorf("seed %d: nothing migrated before the site died", cfg.Seed)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x92ef8071b5c1c9a2)
}
