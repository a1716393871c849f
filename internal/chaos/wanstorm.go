package chaos

import (
	"fmt"
	"os"
	"time"

	"insure/internal/fleet"
	"insure/internal/sim"
	"insure/internal/wan"
)

// The flaky-WAN storm campaign is the degraded-network federation's proving
// ground: the site-loss scenario — a multi-day storm parked over one site
// while the others stay sunny — re-run with every cross-site byte forced
// through a lossy, partition-prone backhaul. Chunks drop and corrupt at
// storm rates, and scheduled six-hour partitions cut first a donor and then
// the evacuating site itself mid-transfer. The invariants are the
// federation's exactly-once contract: no migrated job is lost, none lands
// twice, no partition is mistaken for a death, the coordinator's live
// accounting reconciles exactly with a fresh replay of its migration log,
// and with migration off the whole fleet is byte-identical to N solo runs.

// WANStormConfig shapes a federated storm campaign over a degraded WAN.
type WANStormConfig struct {
	// Seed drives the weather, the battery-fault schedule, and every chunk
	// fate; the same seed reproduces the campaign bit-for-bit.
	Seed int64
	// Days is the storm length (the acceptance bar is >= 3).
	Days int
	// Migration arms the federation stack. Off, the campaign additionally
	// re-runs every site solo and demands byte-identity — the WAN and the
	// failure detector may change only what the coordinator believes.
	Migration bool
	// Partitions are the scheduled uplink outages. Nil gets the default
	// pair of six-hour cuts: a donor on day 0, the storm site itself on
	// day 1 — mid-evacuation, with transfers in flight.
	Partitions []wan.Outage
}

// DefaultWANStormConfig is the acceptance campaign: a three-day storm,
// two 6-hour partitions.
func DefaultWANStormConfig(seed int64) WANStormConfig {
	return WANStormConfig{Seed: seed, Days: 3}
}

const (
	// Every WAN storm runs over wanStormSites prototype plants with the
	// storm over site wanStormSite.
	wanStormSites = 3
	wanStormSite  = 0

	// The storm-rate per-chunk-attempt loss probabilities every WAN storm
	// runs at (the acceptance bar is a combined rate >= 0.30).
	wanStormDropRate    = 0.30
	wanStormCorruptRate = 0.05
)

// defaultPartitions is the scheduled outage pair for an n-site fleet with
// the storm over stormSite: six hours without a donor, then six hours with
// the evacuating site itself cut off mid-transfer.
func defaultPartitions(stormSite, sites int) []wan.Outage {
	donor := (stormSite + 1) % sites
	return []wan.Outage{
		{Site: donor, Day: 0, From: 9 * time.Hour, To: 15 * time.Hour},
		{Site: stormSite, Day: 1, From: 10 * time.Hour, To: 16 * time.Hour},
	}
}

// WANStormReport is the outcome of one flaky-WAN storm campaign.
type WANStormReport struct {
	Seed      int64
	Days      int
	Sites     int
	Migration bool

	// Plant outcomes across all sites and days.
	Brownouts int
	VMsLost   int

	// Federation accounting.
	JobsMoved    int
	JobsLanded   int // job IDs that completed a transfer, exactly once
	JobsInFlight int // job IDs still riding a transfer at campaign end
	MigratedGB   float64
	RetransmitGB float64
	Reroutes     int
	ChunkDrops   int
	ChunkCorrupt int
	Heals        int
	SitesLost    int

	// Guard counters, zero by construction.
	JobsDoubleRun int
	SplitBrain    int

	// TrajectoryHash chains every site's recorded frames across all days.
	TrajectoryHash uint64

	Verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *WANStormReport) String() string {
	return fmt.Sprintf("wan-storm seed %d: %d sites, %d days (migration %v): %d jobs moved / %d landed / %d in flight, %.1f GB migrated, %.1f GB retransmitted, %d reroutes, %d drops + %d corrupt, %d heals, %d sites lost, double-run %d, split-brain %d, %d violations",
		r.Seed, r.Sites, r.Days, r.Migration,
		r.JobsMoved, r.JobsLanded, r.JobsInFlight, r.MigratedGB, r.RetransmitGB,
		r.Reroutes, r.ChunkDrops, r.ChunkCorrupt, r.Heals, r.SitesLost,
		r.JobsDoubleRun, r.SplitBrain, r.ViolationCount)
}

// RunWANStorm executes the flaky-WAN federated storm campaign described by
// cfg. Error returns are harness failures only; invariant breaks are
// reported in the WANStormReport so a test can print it with its seed.
func RunWANStorm(cfg WANStormConfig) (*WANStormReport, error) {
	rep := &WANStormReport{
		Seed: cfg.Seed, Days: cfg.Days, Sites: wanStormSites, Migration: cfg.Migration,
	}
	f, err := newStormFleet(SiteLossConfig{
		Seed: cfg.Seed, Days: cfg.Days, Sites: wanStormSites, StormSite: wanStormSite,
		Batteries: plantBatteries, Servers: plantServers, Migration: cfg.Migration,
	}, &rep.Verdict)
	if err != nil {
		return nil, err
	}
	partitions := cfg.Partitions
	if partitions == nil {
		partitions = defaultPartitions(wanStormSite, wanStormSites)
	}
	// The migration log is required: reconciliation replays it.
	logDir, err := os.MkdirTemp("", "insure-wanstorm-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(logDir)

	net, err := wan.New(wan.Config{
		Seed: cfg.Seed, Sites: wanStormSites,
		DropRate: wanStormDropRate, CorruptRate: wanStormCorruptRate,
		Outages: partitions,
	})
	if err != nil {
		return nil, err
	}
	c, err := f.coordinator(fleet.Config{WAN: net, LogDir: logDir})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := f.run(nil); err != nil {
		return nil, err
	}
	rep.Brownouts, rep.VMsLost, rep.TrajectoryHash = f.brownouts, f.vmsLost, f.hash

	frep := c.Report()
	tot := frep.Totals
	rep.JobsMoved = tot.JobsMoved
	rep.MigratedGB = tot.MigratedGB
	rep.RetransmitGB = tot.RetransmitGB
	rep.Reroutes = tot.Reroutes
	rep.ChunkDrops = tot.ChunkDrops
	rep.ChunkCorrupt = tot.ChunkCorrupts
	rep.Heals = frep.Heals
	rep.SitesLost = tot.SitesLost
	rep.JobsDoubleRun = tot.JobsDoubleRun
	rep.SplitBrain = tot.SplitBrain

	// --- Invariants ------------------------------------------------------

	f.guard(tot)
	// No partition here outlasts the 8-hour lease: a declared death would
	// mean the detector confused a partition with a loss — split-brain's
	// front door.
	if tot.SitesLost != 0 {
		rep.violate("%d sites declared dead with no site ever failing", tot.SitesLost)
	}
	// Every scheduled partition must end in a heal: the suspected site
	// heartbeats again and rejoins without accounting damage.
	if frep.Heals < len(partitions) {
		rep.violate("%d partitions scheduled but only %d heals observed", len(partitions), frep.Heals)
	}

	// Exactly-once, from the log alone: walk the migration log like an
	// auditor who never saw the live coordinator. At every moment a job is
	// in exactly one place — riding one transfer or resident at one site.
	// Re-migration (land, then leave on a later transfer) is legitimate;
	// being in two open transfers, or landing while already resident, is a
	// breach. At campaign end every job that ever entered a transfer must
	// be resident somewhere or still in flight — never vanished.
	records, err := fleet.ReplayLog(logDir)
	if err != nil {
		return nil, err
	}
	manifests := map[uint64][]fleet.JobRef{}
	inOpenXfer := map[uint64]bool{}
	resident := map[uint64]bool{}
	entered := map[uint64]bool{}
	for _, r := range records {
		switch r.Kind {
		case fleet.RecXferStart:
			manifests[r.Xfer] = r.Manifest
			for _, ref := range r.Manifest {
				entered[ref.ID] = true
				if inOpenXfer[ref.ID] {
					rep.violate("job %#x entered transfer %d while already in flight", ref.ID, r.Xfer)
				}
				inOpenXfer[ref.ID] = true
				delete(resident, ref.ID) // leaving its site
			}
		case fleet.RecXferDone:
			for _, ref := range manifests[r.Xfer] {
				if resident[ref.ID] {
					rep.violate("job %#x landed while already resident", ref.ID)
				}
				delete(inOpenXfer, ref.ID)
				resident[ref.ID] = true
			}
		case fleet.RecXferAbort:
			for _, ref := range manifests[r.Xfer] {
				delete(inOpenXfer, ref.ID)
			}
			rep.violate("transfer %d aborted with no site death scheduled", r.Xfer)
		}
	}
	for id := range entered {
		switch {
		case resident[id]:
			rep.JobsLanded++
		case inOpenXfer[id]:
			rep.JobsInFlight++
		default:
			rep.violate("job %#x entered a transfer and vanished from the log", id)
		}
	}
	if cfg.Migration {
		if rep.MigratedGB <= 0 {
			rep.violate("storm site migrated nothing across the WAN")
		}
		if rep.JobsLanded == 0 {
			rep.violate("no migrated job ever landed across the lossy WAN")
		}
		if rep.ChunkDrops == 0 {
			rep.violate("%.0f%% drop rate produced zero chunk drops", 100*wanStormDropRate)
		}
		if rep.ChunkDrops+rep.ChunkCorrupt > 0 && rep.RetransmitGB <= 0 {
			rep.violate("chunk losses produced zero retransmitted bytes")
		}
	}

	if err := f.audit(tot); err != nil {
		return nil, err
	}

	// With migration off the coordinator is a pure observer: re-run every
	// site solo on the same fixture and demand bit-identical trajectories.
	if !cfg.Migration {
		solo, err := f.soloHash()
		if err != nil {
			return nil, err
		}
		if solo != rep.TrajectoryHash {
			rep.violate("WAN observer fleet diverged from solo runs: %#x != %#x",
				rep.TrajectoryHash, solo)
		}
	}
	return rep, nil
}

// soloHash runs every site of a fresh copy of the fixture alone — no
// coordinator, no WAN — and chains the same trajectory hash the federated
// run does. Sites share nothing, so running them day-major is running them
// alone. The watches land the storm site's surges; their verdict repeats
// the federated run's, whose plants must be these, so it is dropped.
func (f *stormFleet) soloHash() (uint64, error) {
	solo, err := newStormFleet(f.cfg, new(Verdict))
	if err != nil {
		return 0, err
	}
	var hash uint64
	for day := 0; day < f.cfg.Days; day++ {
		for i, scfg := range solo.dayConfigs(day) {
			if day > 0 {
				if r, ok := solo.sites[i].Sink.(interface{ Rollover() }); ok {
					r.Rollover()
				}
			}
			sys, err := sim.New(scfg, solo.sites[i].Sink)
			if err != nil {
				return 0, err
			}
			solo.watch(day, i, sys)
			sys.Run(solo.mgrs[i])
			hash = chain(hash, hashFrames(sys.Recorder().Frames()))
		}
	}
	return hash, nil
}
