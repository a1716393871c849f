package chaos

import (
	"fmt"
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
	// JobGB is the per-arrival batch dataset size at every site.
	JobGB float64
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
		Batteries: 6,
		Servers:   4,
		JobGB:     40,
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

	// TrajectoryHash folds every site's recorded frames across all days;
	// two campaigns agree only if every plant moved identically.
	TrajectoryHash uint64

	ViolationCount int
	Violations     []string
}

func (r *SiteLossReport) violate(format string, args ...any) {
	r.ViolationCount++
	if len(r.Violations) < maxViolationDetail {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
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

// RunSiteLoss executes the federated storm campaign described by cfg.
// Error returns are harness failures only; invariant breaks are reported
// in the SiteLossReport so a test can print it with its seed.
func RunSiteLoss(cfg SiteLossConfig) (*SiteLossReport, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("chaos: site-loss campaign needs at least one day")
	}
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("chaos: site-loss campaign needs at least two sites")
	}
	if cfg.StormSite < 0 || cfg.StormSite >= cfg.Sites {
		return nil, fmt.Errorf("chaos: storm site %d outside the %d-site fleet", cfg.StormSite, cfg.Sites)
	}

	// Persistent per-site state: bank, sink, and manager live across days,
	// exactly like the storm campaign's single plant. The storm site starts
	// mid-drought at the dispatch floor; the others hold a working charge.
	banks := make([]*battery.Bank, cfg.Sites)
	sites := make([]fleet.Site, cfg.Sites)
	mgrs := make([]*core.Manager, cfg.Sites)
	for i := range sites {
		soc := 0.50
		if i == cfg.StormSite {
			soc = 0.30
		}
		bank, err := battery.NewBank(battery.DefaultParams(), cfg.Batteries, soc)
		if err != nil {
			return nil, err
		}
		banks[i] = bank
		mcfg := core.DefaultConfig()
		if cfg.Migration {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		mgrs[i] = core.New(mcfg, cfg.Batteries)
		arrivals := []time.Duration{7 * time.Hour}
		if i == cfg.StormSite {
			arrivals = []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		sites[i] = fleet.Site{
			Sink: &sim.BatchSink{
				Queue:    workload.NewBatchQueue(workload.Seismic()),
				Arrivals: arrivals,
				JobGB:    cfg.JobGB,
			},
			Manager: mgrs[i],
		}
	}

	rep := &SiteLossReport{
		Seed: cfg.Seed, Days: cfg.Days, Sites: cfg.Sites,
		StormSite: cfg.StormSite, Migration: cfg.Migration,
	}
	const fnvPrime = 1099511628211

	// Per-site invariant cursors, reset per day where the plant resets.
	prevMode := make([]core.OpMode, cfg.Sites)
	lostSeen := make([]int, cfg.Sites)

	var curFl *sim.Fleet
	c, err := fleet.New(fleet.Config{
		Migration: cfg.Migration,
		LogDir:    cfg.LogDir,
		// The ideal link never partitions, so the only missed heartbeats
		// are a dead site's: a 1 h lease declares a site killed at 15h
		// well before the day ends.
		LeasePasses: 12,
		Prepare: func(day int, fl *sim.Fleet) {
			curFl = fl
			for i := 0; i < cfg.Sites; i++ {
				i := i
				sys := fl.System(i)
				var inj *faults.Injector
				if i == cfg.StormSite {
					inj = faults.NewInjector(stormDayFaults(day, cfg.Batteries), faults.Target{
						Bank: sys.Bank, Fabric: sys.Fabric, Probes: sys.Probes,
					})
				}
				prevMode[i] = mgrs[i].Mode()
				lostSeen[i] = 0 // fresh cluster each day
				sys.SetTickHook(func(tod time.Duration) {
					if inj != nil {
						inj.Tick(tod)
					}
					// Ladder adjacency: every transition happens inside a
					// control pass, so per-tick sampling observes each one.
					if cur := mgrs[i].Mode(); cur != prevMode[i] {
						if !core.LadderAdjacent(prevMode[i], cur) {
							rep.violate("day %d site %d: illegal ladder move %s -> %s at %v",
								day, i, prevMode[i], cur, tod)
						}
						prevMode[i] = cur
					}
					// The federated emergency contract: no VM state lost to a
					// power cut anywhere in the fleet while migration (and with
					// it the survivability ladder) is armed.
					if cfg.Migration {
						if l := sys.Cluster.VMsLost(); l > lostSeen[i] {
							rep.violate("day %d site %d: %d VMs lost uncheckpointed at %v",
								day, i, l-lostSeen[i], tod)
							lostSeen[i] = l
						}
					}
				})
			}
		},
	}, sites)
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

	failedSiteLost := 0
	for day := 0; day < cfg.Days; day++ {
		cfgs := make([]sim.Config, cfg.Sites)
		for i := range cfgs {
			tr := stormDayTrace(cfg.Seed, day)
			if i != cfg.StormSite {
				tr = sunnyDayTrace(cfg.Seed, i, day)
			}
			scfg := sim.DefaultConfig(tr)
			scfg.BatteryCount = cfg.Batteries
			scfg.ServerCount = cfg.Servers
			scfg.RecordEvery = time.Minute
			scfg.Bank = banks[i]
			cfgs[i] = scfg
		}
		res, err := c.RunDay(cfgs)
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			rep.Brownouts += r.Brownouts
			rep.VMsLost += r.VMsLost
			rep.VMsSaved += r.VMsSaved
			if i == cfg.StormSite && day == cfg.FailDay {
				// A hard-failed site crashes with its in-flight VMs by
				// definition — that is the disposability bargain, not a
				// survivability breach.
				failedSiteLost += r.VMsLost
			}
			rep.TrajectoryHash = rep.TrajectoryHash*fnvPrime ^ hashFrames(curFl.System(i).Recorder().Frames())
		}
	}

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

	if g := frep.Totals; g.JobsDoubleRun != 0 || g.SplitBrain != 0 {
		rep.violate("exactly-once guards tripped: %d double-run, %d split-brain", g.JobsDoubleRun, g.SplitBrain)
	}
	if cfg.Migration {
		if lost := rep.VMsLost - failedSiteLost; lost > 0 {
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
			arrivedGB := float64(cfg.Days) * 2 * cfg.JobGB
			stormLocalGB := 0.0
			if p, ok := sites[cfg.StormSite].Sink.(interface{ ProcessedGB() float64 }); ok {
				stormLocalGB = p.ProcessedGB()
			}
			if rep.CompletedAwayGB+stormLocalGB < arrivedGB-cfg.JobGB {
				rep.violate("only %.1f of %.1f arrived GB completed (%.1f away, %.1f locally)",
					rep.CompletedAwayGB+stormLocalGB, arrivedGB, rep.CompletedAwayGB, stormLocalGB)
			}
		}
	}
	return rep, nil
}
