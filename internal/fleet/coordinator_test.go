package fleet_test

import (
	"reflect"
	"testing"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/fleet"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/workload"
)

// soloSites builds n deterministic sites with per-site variation (trace and
// manager alternate) over a trimmed window, plus the matching day configs —
// the byte-identity fixture.
func soloSites(n int) ([]fleet.Site, []sim.Config) {
	traces := []*trace.Trace{trace.FullSystemHigh(), trace.FullSystemLow()}
	sites := make([]fleet.Site, n)
	cfgs := make([]sim.Config, n)
	for i := range sites {
		cfg := sim.DefaultConfig(traces[i%len(traces)])
		cfg.WindowStart = 9 * time.Hour
		cfg.WindowEnd = 11 * time.Hour
		var mgr sim.Manager
		if i%2 == 0 {
			mgr = core.New(core.DefaultConfig(), cfg.BatteryCount)
		} else {
			mgr = baseline.New(baseline.DefaultConfig())
		}
		sites[i] = fleet.Site{Sink: sim.NewSeismicSink(), Manager: mgr}
		cfgs[i] = cfg
	}
	return sites, cfgs
}

// TestCoordinatorDisabledMatchesSoloRuns is the federation calibration bar:
// with migration off, the coordinator's interleaved day must be
// byte-identical to running every site's System.Run alone.
func TestCoordinatorDisabledMatchesSoloRuns(t *testing.T) {
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

	sites, cfgs = soloSites(n)
	c, err := fleet.New(fleet.Config{Migration: false}, sites)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunDay(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("site %d: federated result differs from solo run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
	if tot := c.Totals(); !reflect.DeepEqual(tot, fleet.Totals{}) {
		t.Errorf("observer coordinator accumulated migration totals: %+v", tot)
	}
}

// migrationScenario is a 2..3-site day with a storm-darkened batch site and
// sunny surplus donors: site 0 is dark, low on charge, and holding deferred
// seismic work; the others are sunny and idle.
func migrationScenario(n int, survival bool) ([]fleet.Site, []sim.Config) {
	sites := make([]fleet.Site, n)
	cfgs := make([]sim.Config, n)
	for i := range sites {
		var cfg sim.Config
		sink := &sim.BatchSink{Queue: workload.NewBatchQueue(workload.Seismic()), JobGB: 20}
		mcfg := core.DefaultConfig()
		if i == 0 {
			cfg = sim.DefaultConfig(trace.Synthesize(solar.Rainy, 7, time.Second))
			cfg.InitialSoC = 0.30
			sink.Arrivals = []time.Duration{7 * time.Hour}
			if survival {
				mcfg.Survival = core.DefaultSurvivalConfig()
			}
		} else {
			cfg = sim.DefaultConfig(trace.Synthesize(solar.Sunny, 7+int64(i), time.Second))
			cfg.InitialSoC = 0.70
		}
		sites[i] = fleet.Site{Sink: sink, Manager: core.New(mcfg, cfg.BatteryCount)}
		cfgs[i] = cfg
	}
	return sites, cfgs
}

// TestCoordinatorMigratesTowardSurplus checks the tentpole behaviour: the
// dark site's deferred work moves to the sunny site and completes there,
// and a rerun with the same seeds is identical.
func TestCoordinatorMigratesTowardSurplus(t *testing.T) {
	run := func() (*fleet.Report, []sim.Result) {
		sites, cfgs := migrationScenario(2, true)
		c, err := fleet.New(fleet.Config{Migration: true}, sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunDay(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return c.Report(), res
	}

	rep, _ := run()
	if rep.Totals.MigratedGB <= 0 {
		t.Fatalf("no work migrated off the dark site: %s", rep)
	}
	if rep.Sites[1].JobsIn == 0 {
		t.Errorf("sunny site received no jobs: %s", rep)
	}
	if rep.Sites[0].PendingGB != 0 {
		t.Errorf("dark site still holds %.1f GB deferred", rep.Sites[0].PendingGB)
	}
	if rep.Sites[1].MigratedCompletedGB <= 0 {
		t.Errorf("sunny site completed none of the migrated work: %s", rep)
	}
	if rep.Totals.EnergyWh <= 0 || rep.Totals.Cost <= 0 {
		t.Errorf("migration shipped %.1f GB with no energy/cost accounting: %+v",
			rep.Totals.MigratedGB, rep.Totals)
	}

	rep2, _ := run()
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("same-seed federated runs diverged:\n 1st: %s\n 2nd: %s", rep, rep2)
	}
}

// TestCoordinatorLogRecoveryReplays kills the coordinator after a migrated
// day and rebuilds it from the migration log alone: the replayed accounting
// must match what the dead coordinator knew.
func TestCoordinatorLogRecoveryReplays(t *testing.T) {
	dir := t.TempDir()

	sites, cfgs := migrationScenario(2, true)
	c, err := fleet.New(fleet.Config{Migration: true, LogDir: dir}, sites)
	if err != nil {
		t.Fatal(err)
	}
	if c.Recovered() {
		t.Fatal("fresh coordinator claims recovery")
	}
	if _, err := c.RunDay(cfgs); err != nil {
		t.Fatal(err)
	}
	want := c.Totals()
	wantRep := c.Report()
	if want.Migrations == 0 {
		t.Fatalf("scenario migrated nothing: %s", wantRep)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A replacement coordinator process: fresh sites, same log.
	sites2, _ := migrationScenario(2, true)
	c2, err := fleet.New(fleet.Config{Migration: true, LogDir: dir}, sites2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Recovered() {
		t.Fatal("replacement coordinator did not replay the migration log")
	}
	if got := c2.Totals(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed totals differ:\n got: %+v\nwant: %+v", got, want)
	}
	rep2 := c2.Report()
	for i := range wantRep.Sites {
		if rep2.Sites[i].JobsOut != wantRep.Sites[i].JobsOut ||
			rep2.Sites[i].JobsIn != wantRep.Sites[i].JobsIn ||
			rep2.Sites[i].ImagesOut != wantRep.Sites[i].ImagesOut {
			t.Errorf("site %d durable accounting not replayed: got %+v want %+v",
				i, rep2.Sites[i], wantRep.Sites[i])
		}
	}

	records, err := fleet.ReplayLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("migration log is empty after a migrated day")
	}
	// No WAN configured means an ideal link, not a second shipping path:
	// every shipment rides the chunked transfer records.
	for _, r := range records {
		switch r.Kind {
		case fleet.RecSiteLoss, fleet.RecXferStart, fleet.RecXferProgress,
			fleet.RecXferDone, fleet.RecXferReroute, fleet.RecXferAbort:
		default:
			t.Errorf("nil-WAN coordinator journaled a %v record", r.Kind)
		}
	}
}

// TestCoordinatorSiteLossIsDisposable fails the preferred donor mid-day:
// the fleet keeps running, work re-routes to the remaining donor, only the
// dead site's in-flight resources are lost, and the loss is journaled.
func TestCoordinatorSiteLossIsDisposable(t *testing.T) {
	dir := t.TempDir()
	sites, cfgs := migrationScenario(3, true)
	c, err := fleet.New(fleet.Config{Migration: true, LogDir: dir}, sites)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ScheduleSiteFailure(0 /* day */, 10*time.Hour, 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunDay(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !rep.Sites[1].Dead {
		t.Fatalf("scheduled failure did not kill site 1: %s", rep)
	}
	if rep.Totals.SitesLost != 1 {
		t.Errorf("SitesLost = %d, want 1", rep.Totals.SitesLost)
	}
	if rep.Sites[2].Dead || res[2].EndVolt <= 0 {
		t.Errorf("surviving site 2 was disturbed by site 1's death: %+v", res[2])
	}
	if rep.Totals.MigratedGB <= 0 {
		t.Errorf("no migration happened around the failure: %s", rep)
	}

	sawLoss := false
	records, err := fleet.ReplayLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if r.Kind == fleet.RecSiteLoss && r.From == 1 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Error("site loss was not journaled")
	}
}

// TestCoordinatorTelemetry attaches a registry and checks the fleet series
// reflect the migrated day.
func TestCoordinatorTelemetry(t *testing.T) {
	sites, cfgs := migrationScenario(2, true)
	c, err := fleet.New(fleet.Config{Migration: true}, sites)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(reg)
	if _, err := c.RunDay(cfgs); err != nil {
		t.Fatal(err)
	}
	tot := c.Totals()
	if tot.Migrations == 0 {
		t.Fatal("scenario migrated nothing")
	}
	snap := reg.Gauge("insure_fleet_migrated_gb", "").Value()
	if snap != tot.MigratedGB {
		t.Errorf("insure_fleet_migrated_gb = %v, want %v", snap, tot.MigratedGB)
	}
	if got := reg.Counter("insure_fleet_migrations_total", "").Value(); got != int64(tot.Migrations) {
		t.Errorf("insure_fleet_migrations_total = %d, want %d", got, tot.Migrations)
	}
	if got := reg.Gauge("insure_fleet_sites_live", "").Value(); got != 2 {
		t.Errorf("insure_fleet_sites_live = %v, want 2", got)
	}
}

// TestCoordinatorRejectsBadSites covers the constructor validation.
func TestCoordinatorRejectsBadSites(t *testing.T) {
	if _, err := fleet.New(fleet.Config{}, nil); err == nil {
		t.Error("want error for empty site list")
	}
	sites, _ := soloSites(2)
	sites[1].Sink = nil
	if _, err := fleet.New(fleet.Config{}, sites); err == nil {
		t.Error("want error for nil Sink")
	}
	sites, _ = soloSites(2)
	sites[0].Manager = nil
	if _, err := fleet.New(fleet.Config{}, sites); err == nil {
		t.Error("want error for nil Manager")
	}
}
