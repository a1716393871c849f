package chaos

import (
	"fmt"
	"reflect"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/fleet"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/workload"
)

// The site-loss campaign is the federation layer's proving ground: N sites
// under one coordinator, with the storm campaign's weather (and its battery
// surges) parked over exactly one of them for several days while the others
// stay sunny. With migration enabled the darkened site must hand its
// deferred batch work to the surplus sites and lose zero VMs — the
// coordinator's migrate-before-shed contract. With migration disabled the
// same storm shows what a solo plant loses, giving the on/off comparison
// the acceptance bar asks for.

// SiteLossConfig shapes a federated storm-over-one-site campaign.
type SiteLossConfig struct {
	// Seed drives the per-day weather for every site; the same seed
	// reproduces the whole fleet bit-for-bit.
	Seed int64
	// Days is the storm length (the acceptance bar is >= 3).
	Days int
	// Sites is the fleet size; StormSite is the index the storm sits over.
	Sites     int
	StormSite int
	// Batteries and Servers size each plant.
	Batteries int
	Servers   int
	// Migration arms the full federation stack: survivability ladders on
	// every site plus surplus-driven migration and checkpoint shipping.
	// Off, the fleet is N pre-federation plants riding the same weather.
	Migration bool
	// FailDay, when >= 0, additionally hard-kills the storm site on that
	// day at 15h — storm damage turning into total site loss.
	FailDay int
	// LogDir, when set, makes the coordinator's migration log durable.
	LogDir string
}

// DefaultSiteLossConfig is the acceptance campaign: three sites, a
// three-day storm over site 0.
func DefaultSiteLossConfig(seed int64) SiteLossConfig {
	return SiteLossConfig{
		Seed:      seed,
		Days:      3,
		Sites:     3,
		StormSite: 0,
		Batteries: plantBatteries,
		Servers:   plantServers,
		FailDay:   -1,
	}
}

// SiteLossReport is the outcome of one site-loss campaign.
type SiteLossReport struct {
	Seed      int64
	Days      int
	Sites     int
	StormSite int
	Migration bool

	// Aggregate plant outcomes across all sites and days.
	Brownouts int
	VMsLost   int
	VMsSaved  int

	// Federation accounting.
	Migrations     int
	MigratedGB     float64
	ImagesShipped  int
	ImagesRestored int
	SitesLost      int

	// StormBacklogGB is the storm site's deferred backlog left at campaign
	// end; CompletedAwayGB is the migrated volume the surplus sites
	// finished on its behalf.
	StormBacklogGB  float64
	CompletedAwayGB float64

	// TrajectoryHash chains every site's recorded frames across all days;
	// two campaigns agree only if every plant moved identically.
	TrajectoryHash uint64

	Verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *SiteLossReport) String() string {
	return fmt.Sprintf("site-loss seed %d: %d sites, %d-day storm over site %d (migration %v): VMs lost %d / saved %d, %d migrations %.1f GB, %d images out / %d restored, storm backlog %.1f GB, %.1f GB completed away, %d sites lost, %d violations",
		r.Seed, r.Sites, r.Days, r.StormSite, r.Migration,
		r.VMsLost, r.VMsSaved, r.Migrations, r.MigratedGB,
		r.ImagesShipped, r.ImagesRestored, r.StormBacklogGB, r.CompletedAwayGB,
		r.SitesLost, r.ViolationCount)
}

// sunnyDayTrace synthesizes one clear day for a surplus site. Each site
// gets its own seed lane so no two sites ever share weather.
func sunnyDayTrace(seed int64, site, day int) *trace.Trace {
	return trace.Synthesize(solar.Sunny, seed+1000*int64(site+1)+int64(day), time.Second)
}

// jobGB is the per-arrival batch dataset size at every fleet site.
const jobGB = 40.0

// stormFleet is the storm-over-one-site fixture the federated campaigns
// share. Its banks, sinks, and managers live across days, exactly like the
// storm campaign's single plant. The storm site starts mid-drought at the
// dispatch floor; the others hold a working charge. The fixture builds each
// day's configs, watches every site, chains the trajectory hash, and
// audits the coordinator's books.
type stormFleet struct {
	cfg   SiteLossConfig
	v     *Verdict
	banks []*battery.Bank
	sites []fleet.Site
	mgrs  []*core.Manager

	c       *fleet.Coordinator
	fcfg    fleet.Config
	watches []*watch // the current day's, one per site

	// Plant outcomes summed over every site and day; deadLost is the part
	// of vmsLost that died with a hard-failed site.
	brownouts, vmsLost, vmsSaved, deadLost int
	hash                                   uint64
}

// newStormFleet builds a fresh fixture for cfg; every build is identical.
func newStormFleet(cfg SiteLossConfig, v *Verdict) (*stormFleet, error) {
	if cfg.Days < 1 || cfg.Sites < 2 {
		return nil, fmt.Errorf("chaos: a fleet storm needs at least one day and two sites, not %d and %d", cfg.Days, cfg.Sites)
	}
	if cfg.StormSite < 0 || cfg.StormSite >= cfg.Sites {
		return nil, fmt.Errorf("chaos: storm site %d outside the %d-site fleet", cfg.StormSite, cfg.Sites)
	}
	f := &stormFleet{cfg: cfg, v: v}
	for i := 0; i < cfg.Sites; i++ {
		soc, arrivals := 0.50, []time.Duration{7 * time.Hour}
		if i == cfg.StormSite {
			soc, arrivals = 0.30, []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		bank, err := battery.NewBank(battery.DefaultParams(), cfg.Batteries, soc)
		if err != nil {
			return nil, err
		}
		mcfg := core.DefaultConfig()
		if cfg.Migration {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		mgr := core.New(mcfg, cfg.Batteries)
		f.banks = append(f.banks, bank)
		f.mgrs = append(f.mgrs, mgr)
		f.sites = append(f.sites, fleet.Site{
			Sink: &sim.BatchSink{
				Queue:    workload.NewBatchQueue(workload.Seismic()),
				Arrivals: arrivals,
				JobGB:    jobGB,
			},
			Manager: mgr,
		})
	}
	return f, nil
}

// coordinator federates the fixture's sites under fcfg, with the fixture's
// migration switch and its per-day watches as the Prepare hook.
func (f *stormFleet) coordinator(fcfg fleet.Config) (*fleet.Coordinator, error) {
	fcfg.Migration = f.cfg.Migration
	fcfg.Prepare = f.prepare
	c, err := fleet.New(fcfg, f.sites)
	f.c, f.fcfg = c, fcfg
	return c, err
}

// dayConfigs is each site's sim config for day: storm weather over the
// storm site, per-site sunny lanes elsewhere, banks carried across days.
func (f *stormFleet) dayConfigs(day int) []sim.Config {
	cfgs := make([]sim.Config, f.cfg.Sites)
	for i := range cfgs {
		tr := stormDayTrace(f.cfg.Seed, day)
		if i != f.cfg.StormSite {
			tr = sunnyDayTrace(f.cfg.Seed, i, day)
		}
		cfgs[i] = sim.DefaultConfig(tr)
		cfgs[i].BatteryCount = f.cfg.Batteries
		cfgs[i].ServerCount = f.cfg.Servers
		cfgs[i].RecordEvery = time.Minute
		cfgs[i].Bank = f.banks[i]
	}
	return cfgs
}

// watch installs site i's watch for day. The storm site takes the surge
// faults; with migration armed, so is every site's survivability ladder —
// the federated emergency contract is that no VM state is lost to a power
// cut anywhere in the fleet. The watch runs as the site's tick hook, on a
// pool worker concurrently with the other sites' (sim.Fleet.Advance), so
// it tallies into a Verdict of its own; run folds them into f.v in site
// order.
func (f *stormFleet) watch(day, i int, sys *sim.System) *watch {
	var plan faults.Plan
	if i == f.cfg.StormSite {
		plan = stormDayFaults(day, f.cfg.Batteries)
	}
	return newWatch(new(Verdict), fmt.Sprintf("day %d site %d: ", day, i), sys, f.mgrs[i], plan, f.cfg.Migration)
}

// prepare is the coordinator's per-day hook: it watches every site of the
// day's fresh plants.
func (f *stormFleet) prepare(day int, fl *sim.Fleet) {
	f.watches = f.watches[:0]
	for i := 0; i < fl.Size(); i++ {
		f.watches = append(f.watches, f.watch(day, i, fl.System(i)))
	}
}

// run drives the coordinator through every day, chaining each site's
// trajectory day-major, folding each site's watch verdict into f.v in site
// order, and calling after (when set) at each day boundary.
func (f *stormFleet) run(after func(day int) error) error {
	for day := 0; day < f.cfg.Days; day++ {
		res, err := f.c.RunDay(f.dayConfigs(day))
		if err != nil {
			return err
		}
		dead := f.c.Report().Sites
		for i, w := range f.watches {
			f.brownouts += res[i].Brownouts
			f.vmsLost += res[i].VMsLost
			f.vmsSaved += res[i].VMsSaved
			if dead[i].Dead {
				// A hard-failed site crashes with its in-flight VMs by
				// definition — that is the disposability bargain, not a
				// survivability breach.
				f.deadLost += res[i].VMsLost
			} else {
				w.settle()
			}
			f.v.absorb(w.v)
			f.hash = chain(f.hash, hashFrames(w.sys.Recorder().Frames()))
		}
		if after != nil {
			if err := after(day); err != nil {
				return err
			}
		}
	}
	return nil
}

// guard checks the exactly-once guard counters, zero by construction.
func (f *stormFleet) guard(tot fleet.Totals) {
	if tot.JobsDoubleRun != 0 {
		f.v.violate("%d job IDs landed twice", tot.JobsDoubleRun)
	}
	if tot.SplitBrain != 0 {
		f.v.violate("%d jobs entered a transfer while in flight or landed", tot.SplitBrain)
	}
}

// audit reconciles after the storm: it closes the live coordinator, and a
// fresh one recovered from the migration log alone, over a fresh fixture,
// must agree with the live totals exactly — the log is the single source
// of truth, and replaying it is idempotent.
func (f *stormFleet) audit(tot fleet.Totals) error {
	if err := f.c.Close(); err != nil {
		return err
	}
	fresh, err := newStormFleet(f.cfg, f.v)
	if err != nil {
		return err
	}
	audit, err := fleet.New(fleet.Config{
		Migration: f.cfg.Migration, WAN: f.fcfg.WAN, LogDir: f.fcfg.LogDir, LogFS: f.fcfg.LogFS,
	}, fresh.sites)
	if err != nil {
		return err
	}
	defer audit.Close()
	if got := audit.Totals(); !reflect.DeepEqual(got, tot) {
		f.v.violate("log replay does not reconcile with live totals:\n replay: %+v\n   live: %+v", got, tot)
	}
	return nil
}

// RunSiteLoss executes the federated storm campaign described by cfg.
// Error returns are harness failures only; invariant breaks are reported
// in the SiteLossReport so a test can print it with its seed.
func RunSiteLoss(cfg SiteLossConfig) (*SiteLossReport, error) {
	rep := &SiteLossReport{
		Seed: cfg.Seed, Days: cfg.Days, Sites: cfg.Sites,
		StormSite: cfg.StormSite, Migration: cfg.Migration,
	}
	f, err := newStormFleet(cfg, &rep.Verdict)
	if err != nil {
		return nil, err
	}
	c, err := f.coordinator(fleet.Config{
		LogDir: cfg.LogDir,
		// The ideal link never partitions, so the only missed heartbeats
		// are a dead site's: a 1 h lease declares a site killed at 15h
		// well before the day ends.
		LeasePasses: 12,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	if cfg.FailDay >= 0 {
		if cfg.FailDay >= cfg.Days {
			return nil, fmt.Errorf("chaos: FailDay %d outside the %d-day campaign", cfg.FailDay, cfg.Days)
		}
		if err := c.ScheduleSiteFailure(cfg.FailDay, 15*time.Hour, cfg.StormSite); err != nil {
			return nil, err
		}
	}
	if err := f.run(nil); err != nil {
		return nil, err
	}
	rep.Brownouts, rep.VMsLost, rep.VMsSaved = f.brownouts, f.vmsLost, f.vmsSaved
	rep.TrajectoryHash = f.hash

	frep := c.Report()
	rep.Migrations = frep.Totals.Migrations
	rep.MigratedGB = frep.Totals.MigratedGB
	rep.ImagesShipped = frep.Totals.ImagesShipped
	rep.ImagesRestored = frep.Totals.RestoredVMs
	rep.SitesLost = frep.Totals.SitesLost
	rep.StormBacklogGB = frep.Sites[cfg.StormSite].PendingGB
	for i, s := range frep.Sites {
		if i != cfg.StormSite {
			rep.CompletedAwayGB += s.MigratedCompletedGB
		}
	}

	f.guard(frep.Totals)
	if cfg.Migration {
		if lost := rep.VMsLost - f.deadLost; lost > 0 {
			rep.violate("federated storm lost %d VMs with migration armed", lost)
		}
		if rep.MigratedGB <= 0 {
			rep.violate("storm site migrated nothing off-site")
		}
		if cfg.FailDay < 0 {
			if rep.StormBacklogGB > 0 {
				rep.violate("storm site finished the campaign holding %.1f GB deferred", rep.StormBacklogGB)
			}
			// The storm site's deferred work must actually complete — locally
			// or at the surplus sites — not just move around. MigratedGB is
			// not the yardstick here (a bundle re-shipped under deadline
			// pressure counts twice); the site's arrival total is. One
			// in-progress tail job is allowed at cut-off.
			arrivedGB := float64(cfg.Days) * 2 * jobGB
			stormLocalGB := 0.0
			if p, ok := f.sites[cfg.StormSite].Sink.(interface{ ProcessedGB() float64 }); ok {
				stormLocalGB = p.ProcessedGB()
			}
			if rep.CompletedAwayGB+stormLocalGB < arrivedGB-jobGB {
				rep.violate("only %.1f of %.1f arrived GB completed (%.1f away, %.1f locally)",
					rep.CompletedAwayGB+stormLocalGB, arrivedGB, rep.CompletedAwayGB, stormLocalGB)
			}
		}
	}
	return rep, nil
}
