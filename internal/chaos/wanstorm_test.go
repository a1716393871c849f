package chaos

import (
	"testing"
	"time"

	"insure/internal/wan"
)

// TestWANStormExactlyOnce is the degraded-WAN acceptance campaign: a
// three-day storm with 30% chunk drops + 5% corruption and two six-hour
// partitions. Every migrated job must land exactly once, no partition may
// be declared a death, the log must reconcile with the live accounting,
// and the guard counters must stay zero.
func TestWANStormExactlyOnce(t *testing.T) {
	cfg := DefaultWANStormConfig(601)
	cfg.Migration = true
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount > 0 {
		t.Fatalf("%s\nviolations:\n%s", rep, joinViolations(rep.Violations))
	}
	if rep.JobsMoved == 0 || rep.JobsLanded == 0 {
		t.Fatalf("campaign moved nothing across the WAN: %s", rep)
	}
	if rep.ChunkDrops == 0 || rep.RetransmitGB <= 0 {
		t.Fatalf("lossy WAN produced no visible loss: %s", rep)
	}
	if rep.Heals < 2 {
		t.Fatalf("two partitions must produce two heals: %s", rep)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x1be9c8a23bfbfa19)
}

// TestWANStormRerunIsBitIdentical reruns the acceptance campaign with the
// same seed: trajectory hash and every accounting field must match exactly.
// Drops, partitions, reroutes, and backoff are all deterministic functions
// of the seed and the sim clock.
func TestWANStormRerunIsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("rerun campaign skipped in -short")
	}
	cfg := DefaultWANStormConfig(602)
	cfg.Migration = true
	a, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrajectoryHash != b.TrajectoryHash {
		t.Errorf("same-seed trajectories diverged: %#x != %#x", a.TrajectoryHash, b.TrajectoryHash)
	}
	if a.String() != b.String() {
		t.Errorf("same-seed campaign accounting diverged:\n 1st: %s\n 2nd: %s", a, b)
	}
}

// TestWANStormObserverIsByteIdentical runs the campaign with migration off:
// the WAN, the failure detector, and the partitions may change only what
// the coordinator believes — every plant's trajectory must be bit-identical
// to its solo run (the campaign itself computes and compares the solo hash;
// a divergence is a violation).
func TestWANStormObserverIsByteIdentical(t *testing.T) {
	cfg := DefaultWANStormConfig(603)
	cfg.Migration = false
	cfg.Days = 2 // identity holds day-by-day; two days keep the test fast
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount > 0 {
		t.Fatalf("%s\nviolations:\n%s", rep, joinViolations(rep.Violations))
	}
	if rep.JobsMoved != 0 || rep.MigratedGB != 0 {
		t.Fatalf("observer campaign migrated work: %s", rep)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x4733356da42cd6e9)
}

// TestWANStormPartitionOutlastingLeaseIsDeath pins the other side of the
// detector line: shrink the lease below a partition's length and the
// coordinator must declare the cut-off site dead — proving the default
// lease, which no scheduled partition outlasts, is what prevents it.
func TestWANStormPartitionOutlastingLeaseIsDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("lease campaign skipped in -short")
	}
	cfg := DefaultWANStormConfig(604)
	cfg.Migration = true
	cfg.Days = 1
	cfg.Partitions = []wan.Outage{
		{Site: 1, Day: 0, From: 9 * time.Hour, To: 23 * time.Hour},
	}
	rep, err := RunWANStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 14-hour cut outlasts the 8-hour lease: the declaration is expected
	// and RunWANStorm reports it as a SitesLost violation — which is the
	// point. Everything else must stay clean.
	if rep.SitesLost == 0 {
		t.Fatalf("14-hour partition did not expire the 8-hour lease: %s", rep)
	}
	if rep.JobsDoubleRun != 0 || rep.SplitBrain != 0 {
		t.Fatalf("guards tripped across a lease expiry: %s", rep)
	}
	pinHash(t, "trajectory", rep.TrajectoryHash, 0x460ae6aec31855b2)
}

func joinViolations(vs []string) string {
	out := ""
	for _, v := range vs {
		out += "  " + v + "\n"
	}
	return out
}
