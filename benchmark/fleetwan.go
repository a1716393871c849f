package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	jobs "insure/internal/workload"
)

// The fleet_wan workload rebuilds insure-fleetd's world from the packages'
// public API and runs it cold: a storm-parked site and two sunny donors
// over a lossy, partitioned WAN, with the migration log and landed images
// on disk and a snapshot plus a scrub at every day boundary.

const (
	fleetSites     = 3
	fleetBatteries = 6
	fleetServers   = 4
	fleetJobGB     = 40
	fleetDrop      = 0.30
	fleetCorrupt   = 0.05
	// fleetPeriod is the coordinator's default control period.
	fleetPeriod = 5 * time.Minute
	// stormSite starts low and rides rainy days; the others are sunny.
	stormSite = 0
)

// fleetWorld is the sites' persistent state: banks, managers and queues
// outlive the days.
type fleetWorld struct {
	sites []fleet.Site
	banks []*battery.Bank
	sinks []*sim.BatchSink
	mgrs  []*core.Manager
}

func newFleetWorld() (*fleetWorld, error) {
	w := &fleetWorld{}
	for i := 0; i < fleetSites; i++ {
		soc, arrivals := 0.50, []time.Duration{7 * time.Hour}
		if i == stormSite {
			soc, arrivals = 0.30, []time.Duration{7 * time.Hour, 13 * time.Hour}
		}
		bank, err := battery.NewBank(battery.DefaultParams(), fleetBatteries, soc)
		if err != nil {
			return nil, err
		}
		mc := core.DefaultConfig()
		mc.Survival = core.DefaultSurvivalConfig()
		mgr := core.New(mc, fleetBatteries)
		sink := &sim.BatchSink{
			Queue:    jobs.NewBatchQueue(jobs.Seismic()),
			Arrivals: arrivals,
			JobGB:    fleetJobGB,
		}
		w.banks = append(w.banks, bank)
		w.mgrs = append(w.mgrs, mgr)
		w.sinks = append(w.sinks, sink)
		w.sites = append(w.sites, fleet.Site{Name: fmt.Sprintf("site%d", i), Sink: sink, Manager: mgr})
	}
	return w, nil
}

// dayConfigs builds day's plant configs: each site's weather lane comes
// from seed, and its bank carries across days.
func (w *fleetWorld) dayConfigs(seed int64, day int) []sim.Config {
	cfgs := make([]sim.Config, fleetSites)
	for i := range cfgs {
		tr := trace.Synthesize(solar.Sunny, seed+1000*int64(i+1)+int64(day), time.Second)
		if i == stormSite {
			tr = trace.Synthesize(solar.Rainy, seed+31*int64(day), time.Second)
		}
		c := sim.DefaultConfig(tr)
		c.BatteryCount = fleetBatteries
		c.ServerCount = fleetServers
		c.RecordEvery = time.Minute
		c.Bank = w.banks[i]
		cfgs[i] = c
	}
	return cfgs
}

// snapshot persists the day boundary the way insure-fleetd does: the day,
// the migration log's sequence, the coordinator, and every site's bank,
// control state and queue.
func (w *fleetWorld) snapshot(store *journal.Store, coord *fleet.Coordinator, day int) error {
	var enc, scratch journal.Encoder
	enc.U8(1)
	enc.Int(day)
	enc.U64(coord.LogSeq())
	coord.AppendState(&enc)
	for i := range w.banks {
		w.banks[i].AppendState(&enc)
		scratch.Reset()
		w.mgrs[i].AppendState(&scratch)
		enc.String(string(scratch.Bytes()))
		w.sinks[i].AppendState(&enc)
	}
	return store.Snapshot(enc.Bytes())
}

// fleetTrace is the traced rep's view: the interval between consecutive
// ticks of the day loop, split by whether a coordinator pass ran in it,
// the day-boundary calls, and the migration log's and snapshot store's
// storage calls.
type fleetTrace struct {
	tr              *tracer
	withPass, plain hist
	boundaryMs      map[string][]float64
	log, snaps      *ioProbe
	cur             int64 // span ID of the interval in progress
	prevStart       int64
	prevTod         time.Duration
	day, k          int
	spans           []span
}

func newFleetTrace(tr *tracer) *fleetTrace {
	ft := &fleetTrace{tr: tr, day: -1, boundaryMs: map[string][]float64{}}
	ft.log = &ioProbe{tr: tr, prefix: "miglog.", parent: &ft.cur}
	ft.snaps = &ioProbe{tr: tr, prefix: "snapshot.", parent: &ft.cur}
	return ft
}

// tick is called at the top of every tick of the day loop.
func (ft *fleetTrace) tick(day int, tod time.Duration, t int64) {
	if day == ft.day {
		d := t - ft.prevStart
		name := "fleet.step"
		if ft.prevTod%fleetPeriod == 0 {
			ft.withPass.add(d)
			name = "fleet.step_with_pass"
		} else {
			ft.plain.add(d)
		}
		if ft.cur != 0 {
			ft.spans = append(ft.spans, span{Name: name, Start: ft.prevStart, Dur: d, ID: ft.cur})
		}
	}
	ft.prevStart, ft.prevTod, ft.day = t, tod, day
	ft.k++
	ft.cur = 0
	if tod%fleetPeriod == 0 || ft.k%tickSpanEvery == 0 {
		ft.cur = ft.tr.id()
	}
}

// boundary runs one day-boundary call; traced, it also times the call and
// records it as a span.
func (ft *fleetTrace) boundary(name string, f func() error) error {
	if ft == nil {
		return f()
	}
	ft.cur = ft.tr.id()
	t := clock()
	err := f()
	d := clock() - t
	ft.boundaryMs[name] = append(ft.boundaryMs[name], float64(d)/1e6)
	ft.spans = append(ft.spans, span{Name: name, Start: t, Dur: d, ID: ft.cur})
	ft.cur = 0
	return err
}

func runFleetWAN(r *rep, seed int64, tr *tracer) error {
	w, err := newFleetWorld()
	if err != nil {
		return err
	}
	net, err := wan.New(wan.Config{
		Seed: seed, Sites: fleetSites, DropRate: fleetDrop, CorruptRate: fleetCorrupt,
		Outages: wan.PlanOutages(seed+77, r.size.fleetDays, fleetSites, 1, 9*time.Hour, 21*time.Hour, 2*time.Hour, 6*time.Hour),
	})
	if err != nil {
		return err
	}
	var ft *fleetTrace
	logFS, snapFS := journal.FS(journal.Disk), journal.FS(journal.Disk)
	if tr != nil {
		ft = newFleetTrace(tr)
		logFS, snapFS = ft.log.fs(), ft.snaps.fs()
	}
	miglogDir := filepath.Join(r.dir, "miglog")
	if err := os.MkdirAll(miglogDir, 0o755); err != nil {
		return err
	}
	images, err := fleet.NewImageStore(journal.Disk, filepath.Join(r.dir, "images"))
	if err != nil {
		return err
	}
	scrub := journal.NewScrubber(
		journal.Target{Name: "snapshots", Dir: r.dir},
		journal.Target{Name: "miglog", Dir: miglogDir},
		journal.Target{Name: "images", Dir: images.Dir()},
	)
	scrub.Interval = 24 * time.Hour

	// The coordinator polls Abort at the top of every tick; a tick on a
	// period boundary is followed by the pass, so boundary to boundary is
	// one pass plus 300 ticks of every site.
	var plantTime time.Duration
	var last int64
	lastDay := -1
	abort := func(day int, tod time.Duration) bool {
		t := clock()
		if ft != nil {
			ft.tick(day, tod, t)
		}
		if tod%fleetPeriod == 0 {
			if day == lastDay {
				r.lat.add(t - last)
			}
			last, lastDay = t, day
			r.attempted++
		}
		return false
	}
	coord, err := fleet.New(fleet.Config{
		Migration: true,
		WAN:       net,
		LogDir:    miglogDir,
		LogFS:     logFS,
		Images:    images,
		Prepare:   func(_ int, fl *sim.Fleet) { plantTime += fl.SimulatedTime() },
		Abort:     abort,
	}, w.sites)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	coord.AttachTelemetry(reg)
	scrub.AttachTelemetry(reg)
	snap, err := journal.OpenFS(snapFS, r.dir)
	if err != nil {
		coord.Close()
		return err
	}

	unrepairable := 0
	r.startTimed()
	err = func() error {
		for day := 0; day < r.size.fleetDays; day++ {
			res, err := coord.RunDay(w.dayConfigs(seed, day))
			if err != nil {
				return err
			}
			for i, x := range res {
				r.fold("day %d site %d %+v\n", day, i, x)
			}
			err = ft.boundary("fleet.snapshot", func() error { return w.snapshot(snap, coord, day+1) })
			if err != nil {
				return err
			}
			err = ft.boundary("journal.scrub", func() error {
				reports, err := scrub.RunOnce()
				for _, rep := range reports {
					unrepairable += rep.Unrepairable
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}()
	r.stopTimed()
	if err != nil {
		coord.Close()
		snap.Close()
		return err
	}
	r.plantYears = plantTime.Hours() / hoursPerYear

	report := coord.Report()
	tot := report.Totals
	logRecords := coord.LogSeq()
	if err := coord.Close(); err != nil {
		snap.Close()
		return err
	}
	if err := snap.Close(); err != nil {
		return err
	}
	r.fold("%+v\n", *report)

	// A fresh coordinator replaying the log alone must agree exactly.
	audit, err := newFleetWorld()
	if err != nil {
		return err
	}
	t0 := clock()
	replayed, err := fleet.New(fleet.Config{Migration: true, WAN: net, LogDir: miglogDir}, audit.sites)
	replayNs := clock() - t0
	if err != nil {
		return err
	}
	reconciled := reflect.DeepEqual(replayed.Totals(), tot)
	if err := replayed.Close(); err != nil {
		return err
	}
	guards := tot.JobsDoubleRun + tot.SplitBrain + tot.SitesLost
	r.failed += int64(guards + unrepairable)
	r.check(guards == 0, "exactly-once guards tripped: %d double-run, %d split-brain, %d sites lost",
		tot.JobsDoubleRun, tot.SplitBrain, tot.SitesLost)
	r.check(unrepairable == 0, "scrub found %d unrepairable copies", unrepairable)
	if !reconciled {
		r.failed++
		r.check(false, "migration log replay does not reconcile with live totals: replay %+v, live %+v",
			replayed.Totals(), tot)
	}

	if ft == nil {
		return nil
	}
	tr.record(ft.spans...)
	tr.record(ft.log.spans...)
	tr.record(ft.snaps.spans...)
	tr.set("fleet_wan.fleet.pass_self_us.p50", (ft.withPass.quantile(0.5)-ft.plain.quantile(0.5))/1e3)
	tr.set("fleet_wan.sim.site_tick_us.p50", ft.plain.quantile(0.5)/fleetSites/1e3)
	tr.set("fleet_wan.journal.fsync_us.p50", ft.log.fsync.quantile(0.5)/1e3)
	tr.set("fleet_wan.journal.fsync_us.p99", ft.log.fsync.quantile(0.99)/1e3)
	tr.set("fleet_wan.journal.snapshot_ms", median(ft.boundaryMs["fleet.snapshot"]))
	tr.set("fleet_wan.journal.scrub_ms", median(ft.boundaryMs["journal.scrub"]))
	tr.set("fleet_wan.fleet.log_replay_ms", float64(replayNs)/1e6)
	useful := tot.MigratedGB + tot.CheckpointGB
	tr.set("fleet_wan.fleet.goodput_frac", ratio(useful, useful+tot.RetransmitGB))
	tr.set("fleet_wan.wan.chunk_losses", float64(tot.ChunkDrops+tot.ChunkCorrupts))
	tr.set("fleet_wan.fleet.log_records", float64(logRecords))
	return nil
}
