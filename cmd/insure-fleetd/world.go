package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/fleet"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/wan"
	"insure/internal/workload"
)

// worldConfig shapes the daemon's federated scenario. Everything is derived
// from Seed: the per-site weather lanes, the WAN partition plan, and every
// chunk fate — two daemons with the same config walk identical campaigns,
// which is what makes kill/resume provably bit-identical.
type worldConfig struct {
	Seed      int64
	Sites     int
	Days      int
	Batteries int
	Servers   int
	JobGB     float64
	Migration bool

	// Degraded-backhaul shape.
	Drop, Corrupt    float64
	PartitionsPerDay int
	partitions       []wan.Outage // test override; nil plans from Seed

	// StateDir, when set, makes the world durable: the migration log lives
	// in StateDir/miglog, landed checkpoint images in StateDir/images, and
	// a day-boundary snapshot of every site's batteries, control state, and
	// work queues lives in StateDir itself.
	StateDir string
}

// validate checks the flags a world cannot be built without. runDaemon
// runs it before it binds any listener, so a bad flag is reported as such.
func (cfg worldConfig) validate() error {
	if cfg.Sites < 2 {
		return fmt.Errorf("need at least two sites")
	}
	if cfg.Days < 1 {
		return fmt.Errorf("need at least one day")
	}
	if !(cfg.JobGB > 0 && cfg.JobGB <= math.MaxFloat64) {
		return fmt.Errorf("-job-gb %v: need a finite size above 0 GB", cfg.JobGB)
	}
	return nil
}

// snapStateVersion guards the fleetd snapshot layout.
const snapStateVersion = 1

// world is the assembled fleet: persistent per-site state, the coordinator,
// and the snapshot store. It is built by newWorld — cold or resumed — and
// advanced by run.
type world struct {
	cfg   worldConfig
	banks []*battery.Bank
	sinks []*sim.BatchSink
	mgrs  []*core.Manager
	coord *fleet.Coordinator
	snap  *journal.Store // nil without StateDir
	scrub *journal.Scrubber

	day     int // completed days
	resumed bool

	// abort is consulted by the coordinator at every tick; the runner
	// swaps it in before each day so signals and the kill hook reach the
	// simulation loop.
	abort func(day int, tod time.Duration) bool
}

// errKilled distinguishes the -kill-at test hook from a signal abort.
var errKilled = errors.New("killed by -kill-at")

// darkSite is the scenario's storm-parked site index.
const darkSite = 0

// dayTrace is site i's weather for one day. Seed lanes follow the chaos
// package's seeding contract: per-site lanes at seed+1000*(site+1)+day so
// no two sites (and no two days) ever share a solar stream.
func dayTrace(seed int64, site, day int) *trace.Trace {
	if site == darkSite {
		return trace.Synthesize(solar.Rainy, seed+31*int64(day), time.Second)
	}
	return trace.Synthesize(solar.Sunny, seed+1000*int64(site+1)+int64(day), time.Second)
}

// dayConfigs builds the per-site sim configs for one day, carrying the
// persistent banks across.
func (w *world) dayConfigs(day int) []sim.Config {
	cfgs := make([]sim.Config, w.cfg.Sites)
	for i := range cfgs {
		scfg := sim.DefaultConfig(dayTrace(w.cfg.Seed, i, day))
		scfg.BatteryCount = w.cfg.Batteries
		scfg.ServerCount = w.cfg.Servers
		scfg.RecordEvery = time.Minute
		scfg.Bank = w.banks[i]
		cfgs[i] = scfg
	}
	return cfgs
}

// newWorld assembles the fleet. With a StateDir holding a prior snapshot it
// resumes: the migration log is rolled back to the snapshot's sequence
// number, the coordinator replays it, and every site's batteries, control
// state, and queues are restored — the resumed world re-runs the partial
// day and produces the byte-identical log the undisturbed run would have.
func newWorld(cfg worldConfig) (*world, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	w := &world{cfg: cfg}
	sites := make([]fleet.Site, cfg.Sites)
	w.banks = make([]*battery.Bank, cfg.Sites)
	w.sinks = make([]*sim.BatchSink, cfg.Sites)
	w.mgrs = make([]*core.Manager, cfg.Sites)
	for i := range sites {
		soc := 0.50
		if i == darkSite {
			soc = 0.30
		}
		bank, err := battery.NewBank(battery.DefaultParams(), cfg.Batteries, soc)
		if err != nil {
			return nil, err
		}
		w.banks[i] = bank
		mcfg := core.DefaultConfig()
		if cfg.Migration {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		w.mgrs[i] = core.New(mcfg, cfg.Batteries)
		arrivals := []time.Duration{7 * time.Hour}
		if i == darkSite {
			arrivals = []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		w.sinks[i] = &sim.BatchSink{
			Queue:    workload.NewBatchQueue(workload.Seismic()),
			Arrivals: arrivals,
			JobGB:    cfg.JobGB,
		}
		sites[i] = fleet.Site{
			Name:    fmt.Sprintf("site%d", i),
			Sink:    w.sinks[i],
			Manager: w.mgrs[i],
		}
	}

	partitions := cfg.partitions
	if partitions == nil && cfg.PartitionsPerDay > 0 {
		partitions = wan.PlanOutages(cfg.Seed+77, cfg.Days, cfg.Sites,
			cfg.PartitionsPerDay, 9*time.Hour, 21*time.Hour, 2*time.Hour, 6*time.Hour)
	}
	net, err := wan.New(wan.Config{
		Seed: cfg.Seed, Sites: cfg.Sites,
		DropRate: cfg.Drop, CorruptRate: cfg.Corrupt,
		Outages: partitions,
	})
	if err != nil {
		return nil, err
	}

	// Durable state: load the snapshot (if any) BEFORE the coordinator
	// opens the migration log, because resuming means rolling the log back
	// to the snapshot's moment first — records the dead incarnation wrote
	// during its final partial day are crash-consistent garbage.
	var miglogDir string
	var images *fleet.ImageStore
	var snapDec *journal.Decoder
	if cfg.StateDir != "" {
		miglogDir = filepath.Join(cfg.StateDir, "miglog")
		if err := journal.Disk.MkdirAll(miglogDir); err != nil {
			return nil, err
		}
		images, err = fleet.NewImageStore(journal.Disk, filepath.Join(cfg.StateDir, "images"))
		if err != nil {
			return nil, err
		}
		res, err := journal.Load(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		if res.Snapshot != nil {
			snapDec = journal.NewDecoder(res.Snapshot)
			var miglogSeq uint64
			w.walkHeader(journal.Decoding(snapDec), &miglogSeq)
			if err := snapDec.Err(); err != nil {
				return nil, fmt.Errorf("corrupt snapshot: %w", err)
			}
			if err := journal.TruncateAfterSeq(miglogDir, miglogSeq); err != nil {
				return nil, err
			}
			w.resumed = true
		} else {
			// No snapshot: the prior incarnation (if any) died inside day
			// 0. Cold-start — wipe its partial records so the re-run day
			// appends onto an empty log.
			if err := journal.TruncateAfterSeq(miglogDir, 0); err != nil {
				return nil, err
			}
		}
		// Storage integrity plane: the scrubber patrols all three stores —
		// snapshots, migration log, landed images — repairing damaged
		// mirror copies. The run loop sweeps at every day boundary; the
		// "storage" health check reports writability, mirror sync, and
		// sweep freshness.
		w.scrub = journal.NewScrubber(
			journal.Target{Name: "snapshots", Dir: cfg.StateDir},
			journal.Target{Name: "miglog", Dir: miglogDir},
			journal.Target{Name: "images", Dir: images.Dir()},
		)
		w.scrub.Interval = 24 * time.Hour // swept at day boundaries, not on a wall clock
	}

	w.coord, err = fleet.New(fleet.Config{
		Migration: cfg.Migration,
		WAN:       net,
		LogDir:    miglogDir,
		Images:    images,
		Abort: func(day int, tod time.Duration) bool {
			return w.abort != nil && w.abort(day, tod)
		},
	}, sites)
	if err != nil {
		return nil, err
	}

	// Restore on top of the replayed log: the coordinator's detector view
	// and every site's physical state land exactly on the day boundary.
	if snapDec != nil {
		w.walkBody(journal.Decoding(snapDec))
		if err := snapDec.Err(); err != nil {
			return nil, fmt.Errorf("corrupt snapshot: %w", err)
		}
	}

	if cfg.StateDir != "" {
		w.snap, err = journal.Open(cfg.StateDir)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// walkHeader is the snapshot header's layout: the completed-day count and
// the migration log's applied sequence. Resume reads it before rolling the
// log back to that sequence.
func (w *world) walkHeader(c journal.Codec, miglogSeq *uint64) {
	c.Version(snapStateVersion)
	journal.Int(c, &w.day)
	c.U64(miglogSeq)
}

// walkBody is the layout of the rest of the snapshot: the coordinator's
// detector view, then every site's batteries, control state (a nested
// image) and queues. Resume reads it once fleet.New has replayed the log.
func (w *world) walkBody(c journal.Codec) {
	w.coord.Walk(c)
	for i := range w.banks {
		w.banks[i].Walk(c)
		c.Blob(w.mgrs[i].Walk)
		w.sinks[i].Walk(c)
	}
}

// snapshot persists the day-boundary state.
func (w *world) snapshot() error {
	if w.snap == nil {
		return nil
	}
	var enc journal.Encoder
	miglogSeq := w.coord.LogSeq()
	w.walkHeader(journal.Encoding(&enc), &miglogSeq)
	w.walkBody(journal.Encoding(&enc))
	return w.snap.Snapshot(enc.Bytes())
}

// attachTelemetry publishes the coordinator series and installs per-site
// link health checks on reg: /healthz degrades while any site's heartbeat is
// cut. A rebuilt world attaches to the same registry; its instruments are
// fetched by id and its checks replace the dead world's by name.
func (w *world) attachTelemetry(reg *telemetry.Registry) {
	w.coord.AttachTelemetry(reg)
	if w.scrub != nil {
		w.scrub.AttachTelemetry(reg)
	}
	for i := 0; i < w.cfg.Sites; i++ {
		name := fmt.Sprintf("site%d", i)
		lbl := telemetry.Label{Key: "site", Value: name}
		reach := reg.Gauge("insure_fleet_site_reachable", "", lbl)
		up := reg.Gauge("insure_fleet_site_up", "", lbl)
		reg.AddHealthCheck(name+"-link", func() error {
			if up.Value() < 1 {
				return fmt.Errorf("%s lost", name)
			}
			if reach.Value() < 1 {
				return fmt.Errorf("%s unreachable", name)
			}
			return nil
		})
	}
}

// run drives the remaining days. A context cancellation (signal) or the
// kill hook aborts mid-day with the state dir intact at the last boundary;
// the next incarnation resumes from there.
func (w *world) run(ctx context.Context, killAt func(day int, tod time.Duration) bool) error {
	w.abort = func(day int, tod time.Duration) bool {
		select {
		case <-ctx.Done():
			return true
		default:
		}
		return killAt != nil && killAt(day, tod)
	}
	for w.day < w.cfg.Days {
		if _, err := w.coord.RunDay(w.dayConfigs(w.day)); err != nil {
			if errors.Is(err, fleet.ErrAborted) {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return errKilled
			}
			return err
		}
		w.day++
		if err := w.snapshot(); err != nil {
			return err
		}
		// Day-boundary scrub: repair any decay before the next day's
		// commits land on top of it.
		if w.scrub != nil {
			if _, err := w.scrub.RunOnce(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close releases the coordinator's log and the snapshot store.
func (w *world) close() error {
	err := w.coord.Close()
	if w.snap != nil {
		if cerr := w.snap.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
