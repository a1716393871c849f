package fleet_test

import (
	"reflect"
	"testing"
	"time"

	"insure/internal/fleet"
	"insure/internal/sim"
	"insure/internal/wan"
)

// lossyWAN builds a network for n sites with heavy chunk loss and the given
// scheduled outage windows.
func lossyWAN(t *testing.T, n int, outages []wan.Outage) *wan.Network {
	t.Helper()
	net, err := wan.New(wan.Config{
		Seed: 71, Sites: n,
		DropRate: 0.30, CorruptRate: 0.05,
		Outages: outages,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestWANObserverMatchesSoloRuns extends the calibration bar to the WAN
// path: with migration off, attaching a degraded network — drops, corruption,
// a partition that makes the detector suspect and then heal a site — must
// leave every site's day byte-identical to its solo run. The WAN may only
// change what the coordinator believes, never what the plants do.
func TestWANObserverMatchesSoloRuns(t *testing.T) {
	const n = 3

	sites, cfgs := soloSites(n)
	want := make([]sim.Result, n)
	for i := range sites {
		sys, err := sim.New(cfgs[i], sites[i].Sink)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Run(sites[i].Manager)
	}

	// Site 1 is cut off for 30 minutes inside the 9-11h window: long
	// enough to be suspected (after 2 missed passes), far short of the
	// lease (96 passes), so it must heal, not die.
	outages := []wan.Outage{{Site: 1, Day: 0, From: 9*time.Hour + 30*time.Minute, To: 10 * time.Hour}}
	sites, cfgs = soloSites(n)
	c, err := fleet.New(fleet.Config{Migration: false, WAN: lossyWAN(t, n, outages)}, sites)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunDay(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("site %d: WAN observer run differs from solo run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
	rep := c.Report()
	if tot := c.Totals(); !reflect.DeepEqual(tot, fleet.Totals{}) {
		t.Errorf("WAN observer accumulated migration totals: %+v", tot)
	}
	if rep.Heals < 1 {
		t.Errorf("partitioned site never healed: heals=%d", rep.Heals)
	}
	if rep.Totals.SitesLost != 0 {
		t.Errorf("a 30-minute partition must not expire an 8-hour lease: %+v", rep.Totals)
	}
	if !rep.Sites[1].Reachable {
		t.Errorf("site 1 still unreachable after the outage window closed: %+v", rep.Sites[1])
	}
}

// TestWANMigrationExactlyOnceUnderLoss runs the storm-darkened migration
// scenario across a 30%-drop backhaul: work still moves to the sunny sites,
// every chunk loss shows up as retransmitted (and billed) bytes, no job is
// lost or double-run, and the same seed reproduces the day exactly.
func TestWANMigrationExactlyOnceUnderLoss(t *testing.T) {
	run := func() *fleet.Report {
		sites, cfgs := migrationScenario(3, true)
		c, err := fleet.New(fleet.Config{Migration: true, WAN: lossyWAN(t, 3, nil)}, sites)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunDay(cfgs); err != nil {
			t.Fatal(err)
		}
		return c.Report()
	}

	rep := run()
	tot := rep.Totals
	if tot.MigratedGB <= 0 || tot.JobsMoved == 0 {
		t.Fatalf("no work migrated across the lossy WAN: %s", rep)
	}
	if tot.ChunkDrops == 0 {
		t.Errorf("a 30%% drop rate produced zero chunk drops: %+v", tot)
	}
	if tot.RetransmitGB <= 0 {
		t.Errorf("chunk drops must surface as retransmitted bytes: %+v", tot)
	}
	if tot.EnergyWh <= 0 || tot.Cost <= 0 {
		t.Errorf("attempted bytes were not billed: %+v", tot)
	}
	if tot.JobsDoubleRun != 0 || tot.SplitBrain != 0 {
		t.Fatalf("exactly-once guards tripped: %+v", tot)
	}
	landed := rep.Sites[1].JobsIn + rep.Sites[2].JobsIn
	if landed == 0 {
		t.Errorf("no migrated jobs landed at the sunny sites: %s", rep)
	}
	if landed > tot.JobsMoved {
		t.Errorf("more jobs landed (%d) than were ever moved (%d)", landed, tot.JobsMoved)
	}

	if rep2 := run(); !reflect.DeepEqual(rep, rep2) {
		t.Errorf("same-seed WAN runs diverged:\n 1st: %s\n 2nd: %s", rep, rep2)
	}
}

// TestWANLeaseExpiryDeclaresDeath kills a donor site physically and shrinks
// the lease so the failure detector — which only sees missed heartbeats —
// declares the loss within the day and journals it, while the other sites
// keep working.
func TestWANLeaseExpiryDeclaresDeath(t *testing.T) {
	sites, cfgs := migrationScenario(3, true)
	c, err := fleet.New(fleet.Config{
		Migration: true, WAN: lossyWAN(t, 3, nil),
		LeasePasses: 6, // 30 min at the 5-minute period
	}, sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleSiteFailure(0, 10*time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunDay(cfgs); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Sites[1].Dead {
		t.Fatalf("scheduled failure did not kill site 1: %s", rep)
	}
	if rep.Totals.SitesLost != 1 {
		t.Errorf("lease expiry did not declare the dead site: SitesLost=%d", rep.Totals.SitesLost)
	}
	if rep.Sites[1].Reachable {
		t.Errorf("dead site still reported reachable: %+v", rep.Sites[1])
	}
	if rep.Sites[2].Dead {
		t.Errorf("survivor site 2 was disturbed: %+v", rep.Sites[2])
	}
	if rep.Totals.JobsDoubleRun != 0 || rep.Totals.SplitBrain != 0 {
		t.Fatalf("exactly-once guards tripped around the site loss: %+v", rep.Totals)
	}
}

// TestWANConfigValidation pins the WAN/fleet size check.
func TestWANConfigValidation(t *testing.T) {
	sites, _ := soloSites(2)
	if _, err := fleet.New(fleet.Config{WAN: lossyWAN(t, 3, nil)}, sites); err == nil {
		t.Error("want error when WAN size disagrees with site count")
	}
}
