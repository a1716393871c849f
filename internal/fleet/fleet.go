// Package fleet federates N in-situ plants behind one coordinator — the
// ROADMAP's production shape, where hundreds of solar+battery sites report
// to a control plane that moves work toward whichever site currently has
// energy surplus ("Solar Synergy"'s load-shifting idea applied to the
// paper's in-situ servers).
//
// The coordinator is built on sim.Fleet: every site stays an independent
// plant with its own battery bank, mode ladder, journal, and telemetry.
// Sites couple only at the coordinator's pass, so between two passes the
// sites tick concurrently on the campaign pool (sim.Fleet.Advance, one site
// per cell) and the pass runs on RunDay's goroutine once they all reach the
// pass tick. At its control period the coordinator samples each site's
// energy state (the transduced SoC its own controller steers by, solar
// input, ladder rung, deferred-work depth) and — when migration is
// enabled — moves deferred batch jobs from energy-needy sites to surplus
// ones and ships completed VM checkpoint images off sites that are
// evacuating, so a storm-darkened site hands its work to a sunny one
// instead of sitting on it.
//
// Disposability invariants (after qserv's worker/czar split):
//
//   - Sites are disposable: losing one loses only that site's in-flight
//     resources (running VMs, locally queued jobs). Everything already
//     shipped is unaffected.
//   - Shipped checkpoints are durable: every migration and checkpoint
//     shipment is a record in an append-only journal; a checkpoint in
//     transit to a site that dies is re-routed, not lost.
//   - The coordinator is recoverable: a new coordinator pointed at the same
//     migration log replays it and resumes with the same accounting.
//
// With migration disabled the coordinator is a pure observer: the federated
// run is byte-identical to running each site's System.Run alone, which is
// the calibration bar ("Calibrating Microgrid Simulations") every coupling
// feature must clear before it ships.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"insure/internal/core"
	"insure/internal/cost"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/wan"
	"insure/internal/workload"
)

// ErrAborted is returned by RunDay when Config.Abort stops the day
// mid-flight — the fleet daemon's clean-shutdown and kill-injection path.
// The partial day's effects are crash-consistent garbage by design: the
// daemon resumes from its day-boundary snapshot and re-runs the whole day.
var ErrAborted = errors.New("fleet: day aborted")

// Config shapes a Coordinator.
type Config struct {
	// Migration enables surplus-driven job migration and checkpoint
	// shipping. Off, the coordinator only observes, and the federated run
	// is byte-identical to N solo runs.
	Migration bool
	// LogDir, when set, makes the migration log durable: every shipment is
	// journaled there, and a new Coordinator on the same directory replays
	// it (see Recovered).
	LogDir string
	// LogFS mounts the migration log on an alternative filesystem — the
	// disk-fault campaigns inject storage failures through it. Nil means
	// the real disk.
	LogFS journal.FS
	// Images, when set, persists every landed checkpoint bundle as a
	// mirrored CRC-framed pair and verifies it before the restore is
	// counted; a landing with no intact copy is re-shipped instead of
	// counted (see ImageStore).
	Images *ImageStore
	// Prepare, when set, runs once per day after the day's Systems are
	// built and before the first tick — the hook the chaos campaign uses to
	// attach fault injectors and invariant probes. Prepare itself runs on
	// RunDay's goroutine, but the tick hooks it installs run on pool
	// workers, each site's concurrently with the other sites' (see
	// sim.Fleet.Advance): no two sites' hooks may share mutable state.
	Prepare func(day int, fl *sim.Fleet)

	// WAN is the backhaul every cross-site shipment rides: transfers move
	// chunk by chunk against the link's effective bandwidth, drops and CRC
	// failures cost retransmissions (billed through the tariff), partitions
	// stall transfers mid-image and resume them from the last delivered
	// byte, and a heartbeat/lease failure detector stands in for knowledge
	// of site death. Nil means an ideal link: the tariff's 100 Mbps with no
	// loss and no outages.
	WAN *wan.Network
	// LeasePasses is the number of consecutive missed heartbeats before a
	// suspected site's lease expires and the coordinator declares it dead,
	// journaling the loss (default 96 — 8 h at the 5-minute period, longer
	// than any partition the chaos campaigns schedule, so a partitioned
	// site is never declared dead).
	LeasePasses int
	// Abort, when set, is polled once per tick, on RunDay's goroutine, one
	// control period at a time: before a chunk of ticks runs, RunDay calls
	// Abort for each of the chunk's ticks in order, and the first true
	// stops the day with ErrAborted before that chunk runs. The fleet
	// daemon wires SIGTERM and its kill-injection test hook through this.
	Abort func(day int, tod time.Duration) bool
}

// The coordinator's fixed tuning.
const (
	// controlPeriod is the coordinator's control interval, a multiple of
	// the simulation step.
	controlPeriod = 5 * time.Minute
	// surplusSoC is the mean transduced SoC at which a site qualifies as a
	// migration destination.
	surplusSoC = 0.55
	// deficitSoC is the mean transduced SoC below which a site starts
	// evacuating deferred work even before its ladder reacts.
	deficitSoC = 0.40
	// chunkBytes is the transfer chunk size: 15 chunks per 5-minute pass on
	// the 100 Mbps backhaul.
	chunkBytes int64 = 250e6
	// suspectAfter is the number of consecutive missed heartbeats (control
	// passes) before a site is suspected and leaves the donor pool. A
	// suspected site keeps running solo — it is a complete plant — and
	// rejoins on the first heartbeat that gets through.
	suspectAfter = 2
	// rerouteAfter is the number of consecutive zero-progress passes after
	// which a transfer whose destination is suspected or unreachable
	// re-routes to a fresh donor, restarting from byte zero.
	rerouteAfter = 6
	// maxBackoff caps a stalled transfer's exponential retry backoff.
	maxBackoff = 30 * time.Minute
)

// Site is one federated plant: a persistent identity whose Sink and
// Manager live across days (banks and day traces arrive per-day through
// RunDay's configs).
type Site struct {
	Name    string
	Sink    sim.Sink
	Manager sim.Manager
}

// migratableSink is what a sink must support to participate in job
// migration (sim.BatchSink does; stream sinks don't — cameras are bolted to
// their site).
type migratableSink interface {
	PendingGB() float64
	TakeJobs() []*workload.Job
	Schedule(at time.Duration, job *workload.Job)
}

// siteState is the coordinator's per-site view.
type siteState struct {
	name string
	sink sim.Sink
	mgr  sim.Manager

	dead bool
	// evacuate is latched by the migrate-before-shed mode hook when the
	// site's ladder downgrades, and cleared when it recovers to Normal.
	// The hook runs inside this site's tick, on its pool worker; the pass
	// reads the latch only after Advance has returned.
	evacuate bool

	// Failure-detector view. dead above is physical truth the
	// coordinator cannot observe across the backhaul; these three are
	// what it *believes*: missedBeats counts consecutive control
	// passes without a heartbeat, suspected marks a site pulled from the
	// donor pool, declared marks an expired lease — the point where the
	// loss is journaled.
	missedBeats int
	suspected   bool
	declared    bool

	// Last control-period sample.
	soc       float64
	solarW    float64
	mode      core.OpMode
	pendingGB float64

	// savedSeen marks how many checkpointed images have already been
	// considered for shipping.
	savedSeen int

	// Deadline tracking: lastProcessed is the sink's cumulative output at
	// the previous pass, stalled counts consecutive in-window passes with
	// backlog but no progress, and deadline marks a site that will not
	// finish its backlog before its operating window closes.
	lastProcessed float64
	stalled       int
	deadline      bool
	// lastInbound is when migrated work last landed here; a freshly loaded
	// site gets a grace period to spin up before the deadline logic may
	// judge it stalled.
	lastInbound time.Duration

	// lostPendingGB is the deferred backlog destroyed with the site when it
	// died (zero for live sites).
	lostPendingGB float64

	// Durable accounting, rebuilt from the migration log on recovery.
	jobsOut, jobsIn     int
	gbOut, gbIn         float64
	imagesOut, imagesIn int
}

// needsEvac reports whether the site should be moving work off-site.
func (st *siteState) needsEvac() bool {
	return st.evacuate || st.mode >= core.ModeConservative || st.soc < deficitSoC
}

// siteFailure is a scheduled site loss (the chaos campaign's storm damage).
type siteFailure struct {
	day  int
	at   time.Duration
	site int
	done bool
}

// Totals is the fleet-wide migration accounting. It is rebuilt from the
// migration log on recovery, so it survives the coordinator process.
type Totals struct {
	Migrations    int // job-migration shipments
	JobsMoved     int
	MigratedGB    float64
	ImagesShipped int
	CheckpointGB  float64
	RestoredVMs   int
	SitesLost     int
	EnergyWh      float64
	Cost          cost.Dollars

	// Link accounting (zero on a lossless link that never re-routes).
	RetransmitGB  float64 // bytes spent on the link beyond goodput
	Reroutes      int     // transfers restarted toward a fresh donor
	ChunkDrops    int     // chunk attempts lost in transit
	ChunkCorrupts int     // chunk attempts discarded by CRC framing

	// Guard counters: zero by construction, hard-failed by every test
	// that sees them nonzero. JobsDoubleRun counts a job landing while
	// already resident at a site (it would run in two places);
	// SplitBrain counts a job entering a second transfer while still in
	// flight. Re-migration — land, then later leave on a new transfer —
	// is legitimate and trips neither.
	JobsDoubleRun int
	SplitBrain    int
}

// transfer is one chunked shipment in flight: jobs (with manifest) or
// checkpoint images. The durable part — identity, endpoints, byte offset —
// is rebuilt from the migration log on recovery; the retry state is
// re-derived by deterministically re-running the day.
type transfer struct {
	id       uint64
	from, to int
	images   int
	manifest []JobRef // nil for checkpoint transfers
	gb       float64
	total    int64 // bytes
	sent     int64 // contiguous delivered bytes

	// Live-only retry state, reset at each day boundary.
	stalled      int // consecutive zero-progress passes
	backoffUntil time.Duration
}

// Coordinator owns N federated sites and drives their day loop.
type Coordinator struct {
	cfg    Config
	tariff cost.MigrationTariff

	sites    []siteState
	failures []*siteFailure

	// Chunked transfer engine. xfers is the in-flight table, rebuilt from
	// the migration log on recovery; nextXfer assigns transfer IDs;
	// appliedSeq gates replay so a record is never applied twice. landed
	// and inXfer are the exactly-once guards: a job ID that lands twice or
	// enters a second transfer while in flight increments the Totals guard
	// counters instead of silently double-running.
	xfers      []*transfer
	nextXfer   uint64
	appliedSeq uint64
	landed     map[uint64]bool
	inXfer     map[uint64]uint64 // job ID -> transfer ID
	heals      int               // suspected/declared sites that beat again

	// donorRank is the pass-scoped donor ordering: site indices that pass
	// every frozen donor filter, sorted by sampled SoC descending (ties to
	// the lowest index). Built once per pass from the samples — O(N log N)
	// — so each donor() call is a short ordered walk instead of a full
	// rescan; with many evacuating sites the old per-call scan made a pass
	// O(N²). Reused across passes to avoid per-pass allocation.
	donorRank []int

	// Per-site operating windows for the current day, taken from RunDay's
	// configs — the deadline the coordinator ships against.
	winStart, winEnd []time.Duration

	log       *migLog
	recovered bool

	day    int
	totals Totals

	tel *fleetTelemetry
}

// New assembles a coordinator over the given sites. When cfg.LogDir holds a
// prior migration log, its records are replayed into the coordinator's
// accounting (Recovered reports this).
func New(cfg Config, sites []Site) (*Coordinator, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("fleet: coordinator needs at least one site")
	}
	for i := range sites {
		if sites[i].Sink == nil {
			return nil, fmt.Errorf("fleet: site %d has a nil Sink", i)
		}
		if sites[i].Manager == nil {
			return nil, fmt.Errorf("fleet: site %d has a nil Manager", i)
		}
	}
	if cfg.LeasePasses <= 0 {
		cfg.LeasePasses = 96
	}
	if cfg.WAN == nil {
		net, err := wan.New(wan.Config{Sites: len(sites)})
		if err != nil {
			return nil, err
		}
		cfg.WAN = net
	}
	if cfg.WAN.Sites() != len(sites) {
		return nil, fmt.Errorf("fleet: WAN models %d sites, coordinator has %d",
			cfg.WAN.Sites(), len(sites))
	}

	c := &Coordinator{
		cfg: cfg, tariff: cost.DefaultMigrationTariff(), sites: make([]siteState, len(sites)),
		landed: make(map[uint64]bool), inXfer: make(map[uint64]uint64),
	}
	for i := range sites {
		name := sites[i].Name
		if name == "" {
			name = fmt.Sprintf("site%d", i)
		}
		c.sites[i] = siteState{name: name, sink: sites[i].Sink, mgr: sites[i].Manager}
		// Exactly-once tracking needs fleet-unique job IDs; give each site
		// its own ID lane.
		if s, ok := sites[i].Sink.(interface{ SetIDBase(uint64) }); ok {
			s.SetIDBase(uint64(i+1) << 32)
		}
	}

	if cfg.Migration {
		for i := range c.sites {
			st := &c.sites[i]
			hooked, ok := st.mgr.(interface {
				SetModeHook(func(now time.Duration, from, to core.OpMode))
			})
			if !ok {
				continue
			}
			hooked.SetModeHook(func(now time.Duration, from, to core.OpMode) {
				if to == core.ModeNormal {
					st.evacuate = false
					return
				}
				// Any downgrade onto the ladder means shedding is imminent:
				// migrate before the shed destroys progress.
				if to > from && to >= core.ModeConservative {
					st.evacuate = true
				}
			})
		}
	}

	if cfg.LogDir != "" {
		fsys := cfg.LogFS
		if fsys == nil {
			fsys = journal.Disk
		}
		log, records, seqs, err := openLog(fsys, cfg.LogDir)
		if err != nil {
			return nil, err
		}
		c.log = log
		if len(records) > 0 {
			c.recovered = true
			for i, r := range records {
				c.replay(r, seqs[i])
			}
		}
	}
	return c, nil
}

// Recovered reports whether New found and replayed a prior migration log.
func (c *Coordinator) Recovered() bool { return c.recovered }

// Totals returns the fleet-wide migration accounting so far.
func (c *Coordinator) Totals() Totals { return c.totals }

// LogSeq returns the last journal sequence number applied to the
// coordinator's accounting (0 with no migration log). The fleet daemon
// stamps this into its day-boundary snapshots so a resume can roll the
// migration log back to exactly the snapshot's moment.
func (c *Coordinator) LogSeq() uint64 { return c.appliedSeq }

// Close releases the migration log. The coordinator must not be used after.
func (c *Coordinator) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.close()
}

// ScheduleSiteFailure arranges for site to die on the given day at sim time
// at: its cluster crashes (in-flight VMs are lost), it stops ticking, and
// it leaves the migration pool. The disposability campaign uses this.
func (c *Coordinator) ScheduleSiteFailure(day int, at time.Duration, site int) error {
	if site < 0 || site >= len(c.sites) {
		return fmt.Errorf("fleet: no site %d to fail", site)
	}
	c.failures = append(c.failures, &siteFailure{day: day, at: at, site: site})
	return nil
}

// replay folds one migration-log record back into the accounting — both the
// recovery path and (via record) the live path, so the two are one code
// path and cannot drift. Physical effects (jobs landing in sinks) happen
// live in pumpTransfers, never here: replaying a healed log over a live
// coordinator must change accounting only. Replay is idempotent: seq-gated
// (a record at or below appliedSeq is skipped) and job landings deduplicate
// by ID — a duplicate trips the JobsDoubleRun guard counter instead of
// double-counting.
func (c *Coordinator) replay(r Record, seq uint64) {
	if seq != 0 {
		if seq <= c.appliedSeq {
			return
		}
		c.appliedSeq = seq
	}
	switch r.Kind {
	case RecSiteLoss:
		c.totals.SitesLost++

	case RecXferStart:
		t := &transfer{
			id: r.Xfer, from: r.From, to: r.To, images: r.Images,
			manifest: r.Manifest, gb: r.GB, total: gbToBytes(r.GB),
		}
		c.xfers = append(c.xfers, t)
		if r.Xfer > c.nextXfer {
			c.nextXfer = r.Xfer
		}
		if len(r.Manifest) > 0 {
			c.totals.Migrations++
			c.totals.JobsMoved += r.Jobs
			c.totals.MigratedGB += r.GB
			if r.From >= 0 && r.From < len(c.sites) {
				c.sites[r.From].jobsOut += r.Jobs
				c.sites[r.From].gbOut += r.GB
			}
			for _, ref := range r.Manifest {
				// A landed job may legitimately re-migrate (its new host
				// evacuates in turn): entering a transfer takes it off its
				// site. Being in two transfers at once never is.
				if c.inXfer[ref.ID] != 0 {
					c.totals.SplitBrain++
					continue
				}
				delete(c.landed, ref.ID)
				c.inXfer[ref.ID] = r.Xfer
			}
		} else {
			c.totals.ImagesShipped += r.Images
			c.totals.CheckpointGB += r.GB
			if r.From >= 0 && r.From < len(c.sites) {
				c.sites[r.From].imagesOut += r.Images
			}
		}

	case RecXferProgress:
		t := c.findXfer(r.Xfer)
		if t == nil {
			return
		}
		delta := r.Offset - t.sent
		if delta < 0 {
			delta = 0
		}
		t.sent = r.Offset
		c.totals.RetransmitGB += bytesToGB(r.Attempted - delta)
		c.totals.ChunkDrops += r.Drops
		c.totals.ChunkCorrupts += r.Corrupts
		// Every attempted byte rides the link: retransmissions are billed
		// at the same tariff as goodput.
		c.totals.EnergyWh += c.tariff.EnergyWhBytes(r.Attempted)
		c.totals.Cost += c.tariff.CostBytes(r.Attempted)

	case RecXferDone:
		t := c.findXfer(r.Xfer)
		if t == nil {
			return
		}
		if len(t.manifest) > 0 {
			for _, ref := range t.manifest {
				delete(c.inXfer, ref.ID)
				if c.landed[ref.ID] {
					c.totals.JobsDoubleRun++
					continue
				}
				c.landed[ref.ID] = true
			}
			if t.to >= 0 && t.to < len(c.sites) {
				c.sites[t.to].jobsIn += len(t.manifest)
				c.sites[t.to].gbIn += t.gb
			}
		} else {
			c.totals.RestoredVMs += t.images
			if t.to >= 0 && t.to < len(c.sites) {
				c.sites[t.to].imagesIn += t.images
			}
		}
		c.removeXfer(r.Xfer)

	case RecXferReroute:
		t := c.findXfer(r.Xfer)
		if t == nil {
			return
		}
		c.totals.Reroutes++
		// Bytes already delivered to the abandoned destination are wasted.
		c.totals.RetransmitGB += bytesToGB(r.Offset)
		t.to = r.To
		t.sent = 0

	case RecXferAbort:
		t := c.findXfer(r.Xfer)
		if t == nil {
			return
		}
		for _, ref := range t.manifest {
			delete(c.inXfer, ref.ID)
		}
		if t.from >= 0 && t.from < len(c.sites) {
			c.sites[t.from].lostPendingGB += r.GB
		}
		c.removeXfer(r.Xfer)
	}
}

// findXfer returns the in-flight transfer with the given ID, or nil.
func (c *Coordinator) findXfer(id uint64) *transfer {
	for _, t := range c.xfers {
		if t.id == id {
			return t
		}
	}
	return nil
}

// removeXfer drops the transfer with the given ID from the in-flight table.
func (c *Coordinator) removeXfer(id uint64) {
	for i, t := range c.xfers {
		if t.id == id {
			c.xfers = append(c.xfers[:i], c.xfers[i+1:]...)
			return
		}
	}
}

// record journals one migration event and folds it into the accounting.
func (c *Coordinator) record(r Record) error {
	var seq uint64
	if c.log != nil {
		s, err := c.log.append(r)
		if err != nil {
			return fmt.Errorf("fleet: migration log: %w", err)
		}
		seq = s
	}
	c.replay(r, seq)
	return nil
}

// gbToBytes and bytesToGB convert between the log's GB accounting and the
// chunk engine's byte offsets (decimal GB, matching cost.BytesPerGB).
func gbToBytes(gb float64) int64 { return int64(math.Round(gb * cost.BytesPerGB)) }

func bytesToGB(b int64) float64 { return float64(b) / cost.BytesPerGB }

// RunDay builds one System per site from cfgs (banks typically carry across
// days via Config.Bank), and runs the federated day. Results come back in
// site order. With Migration off this is exactly Fleet.Run.
//
// The sites share no state between two passes, so RunDay walks the day in
// chunks, each from the tick after one pass up to and including the next
// pass tick (a day whose first tick is a pass tick starts with a one-tick
// chunk). Each chunk's ticks of every live site run through Fleet.Advance,
// one site per pool cell, and the pass runs after them on RunDay's
// goroutine. A pending ScheduleSiteFailure cuts its chunk short, so the
// failure lands before the tick it is due at, and the dead site is left
// out of every later chunk. A site whose manager or tick hook panics
// panics RunDay on the caller's goroutine.
func (c *Coordinator) RunDay(cfgs []sim.Config) ([]sim.Result, error) {
	if len(cfgs) != len(c.sites) {
		return nil, fmt.Errorf("fleet: %d day configs for %d sites", len(cfgs), len(c.sites))
	}
	specs := make([]sim.FleetSpec, len(c.sites))
	c.winStart = make([]time.Duration, len(c.sites))
	c.winEnd = make([]time.Duration, len(c.sites))
	for i := range c.sites {
		specs[i] = sim.FleetSpec{Config: cfgs[i], Sink: c.sites[i].sink, Manager: c.sites[i].mgr}
		c.winStart[i], c.winEnd[i] = cfgs[i].WindowStart, cfgs[i].WindowEnd
	}
	fl, err := sim.NewFleet(specs)
	if err != nil {
		return nil, err
	}
	for i := range c.sites {
		// Deadline cursors are per-day: time-of-day restarts at dawn.
		c.sites[i].stalled = 0
		c.sites[i].deadline = false
		c.sites[i].lastInbound = 0
		// The cluster (and its saved-image count) rebuilds fresh each day,
		// so the shipping cursor must restart too.
		c.sites[i].savedSeen = 0
		if c.day > 0 {
			if r, ok := c.sites[i].sink.(interface{ Rollover() }); ok {
				r.Rollover()
			}
		}
	}
	for _, t := range c.xfers {
		// Retry state is live-only: time-of-day restarts at dawn, and a
		// resumed coordinator re-derives it by re-running the day.
		t.stalled = 0
		t.backoffUntil = 0
	}
	if c.cfg.Prepare != nil {
		c.cfg.Prepare(c.day, fl)
	}

	lo, hi := fl.Bounds()
	step := fl.Step()
	live := make([]int, 0, len(c.sites))
	for from := lo; from < hi; {
		to := c.chunkEnd(from, hi, step)
		if c.cfg.Abort != nil {
			for tod := from; tod < to; tod += step {
				if c.cfg.Abort(c.day, tod) {
					return nil, ErrAborted
				}
			}
		}
		for _, sf := range c.failures {
			if !sf.done && sf.day == c.day && from >= sf.at {
				sf.done = true
				c.failSite(fl, sf.site)
			}
		}
		live = live[:0]
		for i := range c.sites {
			if !c.sites[i].dead {
				live = append(live, i)
			}
		}
		fl.Advance(from, to, live)
		if last := to - step; last%controlPeriod == 0 {
			if err := c.pass(fl, last); err != nil {
				return nil, err
			}
		}
		from = to
	}
	res := fl.Finish()
	c.day++
	return res, nil
}

// chunkEnd returns the exclusive end of the chunk of ticks that starts at
// from: the chunk runs up to and including the first pass tick at or after
// from, stops before the first tick at or after a pending site failure
// (so the failure lands before that tick, as it would on a per-tick loop),
// and never runs past hi.
func (c *Coordinator) chunkEnd(from, hi, step time.Duration) time.Duration {
	cut := hi
	for _, sf := range c.failures {
		if !sf.done && sf.day == c.day && sf.at > from && sf.at < cut {
			cut = sf.at
		}
	}
	to := from
	for {
		pass := to%controlPeriod == 0
		to += step
		if pass || to >= cut {
			return to
		}
	}
}

// failSite executes a scheduled site loss. The coordinator cannot observe
// the death across the backhaul; the failure detector journals the loss
// when the site's lease expires.
func (c *Coordinator) failSite(fl *sim.Fleet, i int) {
	st := &c.sites[i]
	if st.dead {
		return
	}
	st.dead = true
	// Only this site's in-flight resources die with it: running VMs crash,
	// its queued jobs are gone. Work and checkpoints already shipped out are
	// untouched, and shipments addressed to it will re-route.
	fl.System(i).Cluster.Crash()
	if ms, ok := st.sink.(migratableSink); ok {
		st.lostPendingGB = ms.PendingGB()
		ms.TakeJobs() // drop them: the site's storage died too
	}
}

// sample refreshes the coordinator's view of site i from the live plant.
// Sampling is read-only: it must not perturb the simulation, or the
// migration-off run would stop being byte-identical to solo runs.
func (c *Coordinator) sample(fl *sim.Fleet, i int) {
	st := &c.sites[i]
	if st.dead {
		return
	}
	sys := fl.System(i)
	st.soc = sys.MeanEstimatedSoC()
	st.solarW = float64(sys.SolarNow())
	st.mode = core.ModeNormal
	if m, ok := st.mgr.(interface{ Mode() core.OpMode }); ok {
		st.mode = m.Mode()
	}
	st.pendingGB = 0
	if ms, ok := st.sink.(migratableSink); ok {
		st.pendingGB = ms.PendingGB()
	}
}

// rebuildDonorRank rebuilds the pass-scoped donor ordering from the fresh
// samples. Every filter applied here is frozen for the remainder of the
// pass: dead and deadline flags, the evacuate latch, and the sampled soc /
// mode / pendingGB fields only change between passes (the evacuation
// loop's pendingGB reset touches only sites that fail these filters, so
// it cannot promote or demote a ranked donor mid-pass). The sort is
// stable over an index-ascending build, so equal SoCs keep lowest-index
// priority — exactly the old linear scan's strict-greater tie-break.
func (c *Coordinator) rebuildDonorRank(tod time.Duration) {
	c.donorRank = c.donorRank[:0]
	for j := range c.sites {
		st := &c.sites[j]
		if st.dead || st.deadline || st.needsEvac() || st.mode != core.ModeNormal {
			continue
		}
		// The coordinator only trusts sites it can currently reach and has
		// not marked suspect — a stale sample is no basis for sending work
		// somewhere.
		if st.suspected || st.declared || c.partitioned(j, tod) {
			continue
		}
		if _, ok := st.sink.(migratableSink); !ok {
			continue
		}
		if st.soc < surplusSoC {
			continue
		}
		c.donorRank = append(c.donorRank, j)
	}
	sort.SliceStable(c.donorRank, func(a, b int) bool {
		return c.sites[c.donorRank[a]].soc > c.sites[c.donorRank[b]].soc
	})
}

// donor picks the best migration destination for work leaving site from:
// the live, batch-capable, non-evacuating Normal-mode site with the highest
// sampled SoC at or above the surplus threshold — the front of donorRank.
// With requireIdle set the destination must also have an empty queue and
// nothing in flight — deadline-driven shipments may only go where they
// will actually run now, which keeps end-of-window backlog from bouncing
// between busy sites. The in-flight count is deliberately read live, not
// at rank build: scheduling migrated jobs onto a donor makes it non-idle
// for the rest of the pass. Returns -1 if none qualifies. Ties break
// toward the lowest index, keeping the choice deterministic.
func (c *Coordinator) donor(from int, requireIdle bool) int {
	for _, j := range c.donorRank {
		if j == from {
			continue
		}
		st := &c.sites[j]
		if requireIdle {
			if st.pendingGB > 0 {
				continue
			}
			if fs, ok := st.sink.(interface{ InFlight() int }); ok && fs.InFlight() > 0 {
				continue
			}
		}
		return j
	}
	return -1
}

// inboundGrace is how long a site that just received migrated work is
// exempt from the stalled-progress deadline check — time to boot VMs and
// start chewing before the coordinator may move the work again.
const inboundGrace = 30 * time.Minute

// partitioned reports whether site i is cut off from the coordinator by the
// WAN model right now.
func (c *Coordinator) partitioned(i int, tod time.Duration) bool {
	return c.cfg.WAN.Partitioned(i, c.day, tod)
}

// heartbeats advances the failure detector one control pass. A heartbeat
// gets through iff the site is physically alive and not WAN-partitioned;
// the coordinator cannot tell those two conditions apart, which is the
// entire point: after suspectAfter misses the site is suspected (pulled
// from the donor pool, still running solo), and only after LeasePasses
// misses — longer than any scheduled partition — does the lease expire
// and the loss get journaled. A heartbeat from a suspected or declared
// site heals it: replayed records deduplicate by job ID, so rejoining is
// accounting-safe by construction.
func (c *Coordinator) heartbeats(tod time.Duration) error {
	for i := range c.sites {
		st := &c.sites[i]
		if !st.dead && !c.partitioned(i, tod) {
			if st.suspected || st.declared {
				c.heals++
			}
			st.missedBeats = 0
			st.suspected = false
			st.declared = false
			continue
		}
		st.missedBeats++
		if st.missedBeats >= suspectAfter {
			st.suspected = true
		}
		if st.missedBeats >= c.cfg.LeasePasses && !st.declared {
			st.declared = true
			if c.cfg.Migration {
				if err := c.record(Record{Day: c.day, At: tod, Kind: RecSiteLoss,
					From: i, To: -1}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pass is one coordinator control period: heartbeats, then a sample of
// every reachable site, then (with migration on) deadline tracking and the
// migration half of the pass.
func (c *Coordinator) pass(fl *sim.Fleet, tod time.Duration) error {
	if err := c.heartbeats(tod); err != nil {
		return err
	}
	for i := range c.sites {
		// A partitioned site cannot report: the coordinator keeps steering
		// by its last sample until the link heals.
		if c.partitioned(i, tod) {
			continue
		}
		c.sample(fl, i)
	}
	defer c.publishTelemetry()
	if !c.cfg.Migration {
		return nil
	}

	// Deadline pressure: energy state is not the only reason to evacuate.
	// A site that is sitting on backlog without progress (its manager is
	// deferring the work), or whose recent processing rate cannot clear the
	// backlog before its operating window closes, should hand the work to a
	// site that will finish it today instead of carrying it into the night.
	for i := range c.sites {
		st := &c.sites[i]
		if st.dead {
			continue
		}
		if c.partitioned(i, tod) {
			// Frozen cursors: no fresh sample, so no rate judgment either.
			continue
		}
		processed := st.lastProcessed
		if p, ok := st.sink.(interface{ ProcessedGB() float64 }); ok {
			processed = p.ProcessedGB()
		}
		rateGBh := (processed - st.lastProcessed) / controlPeriod.Hours()
		st.lastProcessed = processed
		st.deadline = false
		if st.pendingGB <= 0 || tod < c.winStart[i] || tod >= c.winEnd[i] ||
			tod < st.lastInbound+inboundGrace {
			st.stalled = 0
			continue
		}
		if rateGBh <= 0 {
			st.stalled++
		} else {
			st.stalled = 0
		}
		remaining := c.winEnd[i] - tod
		if st.stalled >= 3 || (rateGBh > 0 && st.pendingGB > rateGBh*remaining.Hours()) {
			st.deadline = true
		}
	}

	// Every donor filter is now settled for this pass; rank the candidates
	// once so the transfer and evacuation loops pick donors by ordered walk
	// instead of rescanning all N sites per call.
	c.rebuildDonorRank(tod)
	return c.migrate(fl, tod)
}

// maxChunkTriesPerPass bounds chunk attempts per transfer per control pass
// — a safety valve against a pathological drop rate spinning the pass loop.
const maxChunkTriesPerPass = 128

// attemptKey derives the per-attempt component of the chunk-fate hash from
// the simulation clock, not from mutable retry counters: a resumed
// coordinator re-running the day re-derives the exact same fates, which is
// what makes kill/resume bit-identical.
func attemptKey(day int, tod time.Duration, try int) int {
	return (day*86400+int(tod/time.Second))*128 + try
}

// donorExcluding walks the donor rank for a destination that is neither the
// source nor the excluded (failed) destination. Returns -1 if none.
func (c *Coordinator) donorExcluding(from, except int) int {
	for _, j := range c.donorRank {
		if j == from || j == except {
			continue
		}
		return j
	}
	return -1
}

// startTransfer opens a chunked transfer and journals its manifest. The
// physical hand-off happens when the last chunk lands (pumpTransfers), so a
// transfer cut short by a site death or reroute never half-delivers jobs.
func (c *Coordinator) startTransfer(tod time.Duration, from, to int, manifest []JobRef, images int, gb float64) error {
	id := c.nextXfer + 1
	return c.record(Record{
		Day: c.day, At: tod, Kind: RecXferStart,
		From: from, To: to, Jobs: len(manifest), GB: gb, Images: images,
		Xfer: id, Manifest: manifest,
	})
}

// migrate is the migration half of a control pass: pump in-flight chunked
// transfers, then open new ones off evacuating sites. Shipments only cross
// links the WAN says are up, and destinations come from the
// reachability-filtered donor rank.
func (c *Coordinator) migrate(fl *sim.Fleet, tod time.Duration) error {
	if err := c.pumpTransfers(fl, tod); err != nil {
		return err
	}

	for i := range c.sites {
		st := &c.sites[i]
		energyEvac := st.needsEvac()
		if st.dead || st.declared || !(energyEvac || st.deadline) {
			continue
		}
		// A partitioned site cannot ship anything: its backlog waits for
		// the link, exactly like a real cut fiber.
		if c.partitioned(i, tod) {
			continue
		}

		// Ship newly completed checkpoint images off the evacuating site.
		// The ladder (or orderly shutdown) produced them; the coordinator
		// only moves them somewhere sunny. Deadline pressure alone does not
		// ship images — the VMs there are fine, only the batch queue is late.
		if saved := fl.System(i).Cluster.VMsSaved(); energyEvac && saved > st.savedSeen {
			if to := c.donor(i, false); to >= 0 {
				n := saved - st.savedSeen
				st.savedSeen = saved
				gb := float64(n) * c.tariff.VMImageGB
				if err := c.startTransfer(tod, i, to, nil, n, gb); err != nil {
					return err
				}
			}
		}

		// Migrate the deferred batch backlog toward surplus. Jobs leave the
		// source queue now but only land when the transfer completes — in
		// between they exist solely in the journaled manifest.
		ms, ok := st.sink.(migratableSink)
		if !ok || st.pendingGB <= 0 {
			continue
		}
		to := c.donor(i, !energyEvac)
		if to < 0 {
			continue
		}
		jobs := ms.TakeJobs()
		if len(jobs) == 0 {
			continue
		}
		manifest := make([]JobRef, len(jobs))
		var gb float64
		for k, j := range jobs {
			gb += j.Remaining
			origin := i
			if j.Migrated {
				origin = j.Origin
			}
			manifest[k] = JobRef{
				ID: j.ID, Size: j.Size, Remaining: j.Remaining,
				Arrived: j.Arrived, Origin: origin,
			}
		}
		if err := c.startTransfer(tod, i, to, manifest, 0, gb); err != nil {
			return err
		}
		st.pendingGB = 0
	}
	return nil
}

// pumpTransfers moves every in-flight transfer forward by one control
// period's worth of link budget: chunks are attempted against the WAN's
// seeded fate hash, progress (and every attempted byte, for billing) is
// journaled, completed transfers land their jobs or images, transfers to a
// declared-dead destination re-route to a fresh donor, and transfers whose
// source died abort. Stalled transfers back off exponentially (capped at
// maxBackoff) so a partition doesn't burn the pass loop.
func (c *Coordinator) pumpTransfers(fl *sim.Fleet, tod time.Duration) error {
	// replay mutates c.xfers (done/abort remove entries), so walk a copy.
	for _, t := range append([]*transfer(nil), c.xfers...) {
		// Source declared dead: the unsent bytes died with the site. Jobs
		// still in the manifest are lost exactly like queued jobs on the
		// dead site — disposability, not double-run.
		if c.sites[t.from].declared {
			if err := c.record(Record{Day: c.day, At: tod, Kind: RecXferAbort,
				From: t.from, To: t.to, Jobs: len(t.manifest),
				GB: t.gb, Images: t.images, Xfer: t.id}); err != nil {
				return err
			}
			continue
		}

		// Destination declared dead, or persistently unreachable: give the
		// bytes to a donor that is actually there. Delivered bytes at the
		// old destination are wasted; the transfer restarts from zero.
		if c.sites[t.to].declared ||
			(t.stalled >= rerouteAfter &&
				(c.sites[t.to].suspected || c.partitioned(t.to, tod))) {
			if to := c.donorExcluding(t.from, t.to); to >= 0 {
				if err := c.record(Record{Day: c.day, At: tod, Kind: RecXferReroute,
					From: t.from, To: to, Jobs: len(t.manifest),
					GB: bytesToGB(t.sent), Images: t.images,
					Xfer: t.id, Offset: t.sent}); err != nil {
					return err
				}
				t.stalled = 0
				t.backoffUntil = 0
			}
			// No donor: hold and keep trying the old destination.
		}

		if tod < t.backoffUntil {
			continue
		}

		eff := c.cfg.WAN.EffectiveMbps(t.from, t.to, c.day, tod)
		destUp := !c.sites[t.to].dead
		startSent := t.sent
		sent := t.sent
		var attempted int64
		var drops, corrupts int
		if eff > 0 && destUp {
			budget := int64(eff * 1e6 / 8 * controlPeriod.Seconds())
			tries := 0
			for sent < t.total && tries < maxChunkTriesPerPass {
				chunk := int(sent / chunkBytes)
				size := chunkBytes
				if rest := t.total - sent; rest < size {
					size = rest
				}
				if budget < size {
					break
				}
				budget -= size
				attempted += size
				fate := c.cfg.WAN.ChunkFate(t.from, t.to, t.id, chunk,
					attemptKey(c.day, tod, tries))
				tries++
				switch fate {
				case wan.Delivered:
					sent += size
				case wan.Dropped:
					drops++
				case wan.Corrupted:
					corrupts++
				}
			}
		}
		if attempted > 0 {
			// replay applies the offset to t.sent; mutating it here first
			// would make the goodput delta (and RetransmitGB) compute wrong.
			if err := c.record(Record{Day: c.day, At: tod, Kind: RecXferProgress,
				From: t.from, To: t.to, Xfer: t.id, Offset: sent,
				Attempted: attempted, Drops: drops, Corrupts: corrupts}); err != nil {
				return err
			}
		}

		if sent >= t.total {
			// Image transfers must land verifiably before the restore is
			// journaled. An unverifiable landing re-ships to the same
			// destination: a reroute record resets the transfer to byte
			// zero, billing the wasted bytes, and the next completion
			// rewrites the image pair from scratch.
			if len(t.manifest) == 0 && t.images > 0 && !c.landImages(t.id, t.to) {
				c.cfg.Images.stats.Reshipped++
				if err := c.record(Record{Day: c.day, At: tod, Kind: RecXferReroute,
					From: t.from, To: t.to, GB: bytesToGB(sent), Images: t.images,
					Xfer: t.id, Offset: sent}); err != nil {
					return err
				}
				t.stalled = 0
				t.backoffUntil = 0
				continue
			}
			to, images, manifest := t.to, t.images, t.manifest
			if err := c.record(Record{Day: c.day, At: tod, Kind: RecXferDone,
				From: t.from, To: to, Jobs: len(manifest),
				GB: t.gb, Images: images, Xfer: t.id}); err != nil {
				return err
			}
			// Physical hand-off is live-only: a replayed log adjusts
			// accounting, never schedules jobs twice.
			if len(manifest) > 0 {
				dest, ok := c.sites[to].sink.(migratableSink)
				if !ok {
					return fmt.Errorf("fleet: transfer %d landed on non-batch site %d", t.id, to)
				}
				for _, ref := range manifest {
					dest.Schedule(tod, &workload.Job{
						ID: ref.ID, Size: ref.Size, Remaining: ref.Remaining,
						Arrived: ref.Arrived, Migrated: true, Origin: ref.Origin,
					})
				}
				if tod > c.sites[to].lastInbound {
					c.sites[to].lastInbound = tod
				}
			}
			continue
		}

		// Stall bookkeeping: zero progress grows an exponential backoff so
		// a cut link is probed, not hammered.
		if sent == startSent {
			t.stalled++
			shift := t.stalled - 1
			if shift > 8 {
				shift = 8
			}
			b := controlPeriod << shift
			if b > maxBackoff {
				b = maxBackoff
			}
			t.backoffUntil = tod + b
		} else {
			t.stalled = 0
			t.backoffUntil = 0
		}
	}
	return nil
}

// SiteReport is one site's line in the fleet report.
type SiteReport struct {
	Name                string
	Dead                bool
	Reachable           bool // heartbeat got through on the last pass
	Suspected           bool // pulled from the donor pool by the detector
	SoC                 float64
	Mode                core.OpMode
	PendingGB           float64
	InFlight            int
	JobsOut, JobsIn     int
	GBOut, GBIn         float64
	ImagesOut, ImagesIn int
	MigratedCompletedGB float64
	LostPendingGB       float64
}

// Report is the coordinator's end-of-run summary.
type Report struct {
	Days      int
	Migration bool
	Recovered bool
	Heals     int // suspected/declared sites that heartbeated again
	Totals    Totals
	Sites     []SiteReport
}

// Report assembles the current fleet summary.
func (c *Coordinator) Report() *Report {
	rep := &Report{
		Days:      c.day,
		Migration: c.cfg.Migration,
		Recovered: c.recovered,
		Heals:     c.heals,
		Totals:    c.totals,
		Sites:     make([]SiteReport, len(c.sites)),
	}
	for i := range c.sites {
		st := &c.sites[i]
		sr := SiteReport{
			Name: st.name, Dead: st.dead,
			Reachable: st.missedBeats == 0, Suspected: st.suspected,
			SoC: st.soc, Mode: st.mode, PendingGB: st.pendingGB,
			JobsOut: st.jobsOut, JobsIn: st.jobsIn,
			GBOut: st.gbOut, GBIn: st.gbIn,
			ImagesOut: st.imagesOut, ImagesIn: st.imagesIn,
			LostPendingGB: st.lostPendingGB,
		}
		if ms, ok := st.sink.(interface{ InFlight() int }); ok {
			sr.InFlight = ms.InFlight()
		}
		if mc, ok := st.sink.(interface{ MigratedCompletedGB() float64 }); ok {
			sr.MigratedCompletedGB = mc.MigratedCompletedGB()
		}
		rep.Sites[i] = sr
	}
	return rep
}

// String is the one-line fleet summary.
func (r *Report) String() string {
	live := 0
	for _, s := range r.Sites {
		if !s.Dead {
			live++
		}
	}
	return fmt.Sprintf("fleet: %d sites (%d live), %d days, migration %v: %d shipments moved %d jobs / %.1f GB, %d images (%.1f GB) shipped, %d restored, %.1f Wh / $%.2f backhaul, %d sites lost",
		len(r.Sites), live, r.Days, r.Migration,
		r.Totals.Migrations, r.Totals.JobsMoved, r.Totals.MigratedGB,
		r.Totals.ImagesShipped, r.Totals.CheckpointGB, r.Totals.RestoredVMs,
		r.Totals.EnergyWh, float64(r.Totals.Cost), r.Totals.SitesLost)
}
