package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"insure/internal/diskfault"
	"insure/internal/fleet"
	"insure/internal/journal"
	"insure/internal/wan"
)

// The bit-rot storm campaign is the self-healing storage layer's proving
// ground: several simulated days with a seeded fault-injecting filesystem
// (internal/diskfault) mounted under everything that persists — the
// control-plane state journal on one lane, the fleet migration log and
// checkpoint-image store on another. Writes tear, fsyncs fail (singly and
// in planned sick-disk windows), renames lose their directory entries,
// files decay at rest, and the controller process is killed clean and
// killed torn on a planned schedule throughout.
//
// The invariants are the storage layer's whole contract: no recovery ever
// resumes from silently corrupted state (every recovered image must be an
// image the harness actually committed), rollback after any crash or sick
// window is bounded by one snapshot window, the scrubber repairs every
// decayed mirror copy it meets (zero unrepairable), the fleet's live
// accounting reconciles exactly with a fresh replay through the same
// decaying filesystem, the exactly-once guard counters stay zero, and the
// whole storm — fault fates, repairs, re-ships, and all — is bit-identical
// when re-run with the same seed.

// Seed lanes keep the storm's PRNG streams disjoint (seeding contract):
// the kill/sick-window planner, the control-plane disk, and the fleet
// disk each offset the campaign seed by its own constant.
const (
	bitrotPlanLane  = 31
	bitrotStateLane = 37
	bitrotFleetLane = 41
)

// The control-plane lane is a daemon-style state journal ticking
// bitrotTicksPerDay times a day, snapshotting every bitrotSnapshotEvery
// ticks, killed bitrotKillsPerDay times a day (half of them torn), with one
// planned sick-disk window a day during which every fsync fails.
const (
	bitrotTicksPerDay   = 1440
	bitrotSnapshotEvery = 60
	bitrotKillsPerDay   = 4
)

// bitrotTornSlack is the extra rollback ticks a torn kill may cost beyond
// the snapshot window: tornTailBytes can chop one whole record and tear
// the one before it.
const bitrotTornSlack = 2

// The fleet lane's WAN loses chunks at a milder rate than the WAN storm's.
const (
	bitrotDropRate    = 0.15
	bitrotCorruptRate = 0.03
)

// bitrotStateVersion guards the layout of the harness's journaled state.
const bitrotStateVersion = 1

// BitrotStormConfig shapes a bit-rot storm campaign.
type BitrotStormConfig struct {
	// Seed pins every fault fate, kill time, and sick window; the same
	// seed reproduces the storm bit-for-bit.
	Seed int64
	// Days is the storm length (the acceptance bar is >= 3).
	Days int

	// StateFaults is the control-plane disk's fault mix (Seed and Root
	// are set by the harness).
	StateFaults diskfault.Config

	// FleetFaults is the fleet lane's disk fault mix. The lane is the
	// default site-loss fleet, migration armed, under the usual storm
	// weather, evacuating checkpoints over a lossy WAN onto a decaying
	// disk.
	FleetFaults diskfault.Config
}

// DefaultBitrotStormConfig is the acceptance storm: three days, four
// kills a day over the state journal plus a sick-disk window, torn and
// failed writes, at-rest decay on both lanes, and a three-site fleet
// shipping checkpoints across a 15%-drop WAN onto the decaying disk.
func DefaultBitrotStormConfig(seed int64) BitrotStormConfig {
	return BitrotStormConfig{
		Seed: seed,
		Days: 3,
		StateFaults: diskfault.Config{
			TornWrite:  0.002,
			WriteFail:  0.002,
			SyncFail:   0.001,
			BitRot:     0.03,
			LoseRename: 0.03,
		},
		// The fleet lane's file population is small (one migration-log
		// pair plus a handful of image pairs), so the at-rest decay rate
		// runs hot to make every storm meet it; the mirror of each pair
		// re-rolls independently, so double faults stay rare — and when
		// one hits an image pair, re-shipping is exactly the contract.
		FleetFaults: diskfault.Config{
			BitRot:    0.25,
			ShortRead: 0.01,
		},
	}
}

// BitrotStormReport is the outcome of one bit-rot storm campaign.
type BitrotStormReport struct {
	Seed int64
	Days int

	// Control-plane lane.
	Ticks       int // plant ticks driven
	Commits     int // journal commits acknowledged durable
	Restarts    int // every daemon restart: planned kills + fault crashes
	TornKills   int
	SickWindows int
	MaxRollback int // worst ticks of acknowledged-state rollback seen
	StateFaults diskfault.Stats

	// Scrub totals across both lanes.
	ScrubChecked      int
	ScrubDetected     int
	ScrubRepaired     int
	ScrubUnrepairable int

	// Fleet lane.
	JobsMoved       int
	MigratedGB      float64
	ImagesLanded    int
	ImagesVerified  int
	ImagesRepaired  int
	ImagesCorrupt   int
	ImagesReshipped int
	FleetFaults     diskfault.Stats

	// Guard counters, zero by construction.
	JobsDoubleRun int
	SplitBrain    int

	// StormHash folds every recovery, repair, fault count, and fleet
	// trajectory; two same-seed storms must agree on it exactly.
	StormHash uint64

	Verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *BitrotStormReport) String() string {
	return fmt.Sprintf("bitrot-storm seed %d: %d days, %d ticks, %d commits, %d restarts (%d torn, %d sick windows), max rollback %d, scrub %d checked / %d detected / %d repaired / %d unrepairable, fleet %d jobs / %.1f GB, images %d landed / %d repaired / %d corrupt / %d reshipped, double-run %d, split-brain %d, %d violations",
		r.Seed, r.Days, r.Ticks, r.Commits, r.Restarts, r.TornKills, r.SickWindows,
		r.MaxRollback, r.ScrubChecked, r.ScrubDetected, r.ScrubRepaired, r.ScrubUnrepairable,
		r.JobsMoved, r.MigratedGB, r.ImagesLanded, r.ImagesRepaired, r.ImagesCorrupt,
		r.ImagesReshipped, r.JobsDoubleRun, r.SplitBrain, r.ViolationCount)
}

// scrub sweeps dir on fsys, adds the sweep to the scrub totals, and folds
// its counts (never its Dir, a per-run temp path) into the storm hash
// under label.
func (r *BitrotStormReport) scrub(fsys journal.FS, dir, label string) error {
	srep, err := journal.ScrubDir(fsys, dir)
	if err != nil {
		return err
	}
	r.ScrubChecked += srep.Checked
	r.ScrubDetected += srep.Detected
	r.ScrubRepaired += srep.Repaired
	r.ScrubUnrepairable += srep.Unrepairable
	r.StormHash = fold(r.StormHash, fmt.Sprintf("%s %d %d %d %d %d",
		label, srep.Checked, srep.Detected, srep.Repaired, srep.Unrepairable, srep.Midstream))
	return nil
}

// bitrotEvent is one planned adversity on the control-plane lane.
type bitrotEvent struct {
	tick int
	kind Kind // KillClean or KillTorn
}

// bitrotDayPlan is one day's schedule: kills plus one sick-disk window.
type bitrotDayPlan struct {
	kills     []bitrotEvent
	sickStart int // tick the window opens
	sickEnd   int // tick the window closes (exclusive)
}

// planBitrotDays draws the full storm schedule up front with a fixed
// number of draws per event (two per kill, two per window), per the
// seeding contract.
func planBitrotDays(cfg BitrotStormConfig) []bitrotDayPlan {
	rng := rand.New(rand.NewSource(cfg.Seed + bitrotPlanLane))
	days := make([]bitrotDayPlan, cfg.Days)
	for d := range days {
		p := &days[d]
		for k := 0; k < bitrotKillsPerDay; k++ {
			tick := rng.Intn(bitrotTicksPerDay)
			kind := KillClean
			if rng.Float64() < 0.5 {
				kind = KillTorn
			}
			p.kills = append(p.kills, bitrotEvent{tick: tick, kind: kind})
		}
		sort.Slice(p.kills, func(i, j int) bool { return p.kills[i].tick < p.kills[j].tick })
		// One sick window a day, at most one snapshot window long so the
		// healthcheck-driven restart at its end stays inside the rollback
		// bound.
		p.sickStart = rng.Intn(bitrotTicksPerDay - bitrotSnapshotEvery)
		p.sickEnd = p.sickStart + bitrotSnapshotEvery/4 + rng.Intn(3*bitrotSnapshotEvery/4)
	}
	return days
}

// bitrotState is the deterministic per-tick state the harness journals:
// commit t carries (t, H(t)) where H is a seeded hash chain. Any recovered
// image claiming tick t must carry exactly H(t) — anything else is silent
// corruption that slipped past the CRCs and mirrors.
type bitrotState struct {
	hashes []uint64
	enc    journal.Encoder
}

func newBitrotState(seed int64, ticks int) *bitrotState {
	s := &bitrotState{hashes: make([]uint64, ticks)}
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for t := range s.hashes {
		h = fold(h, fmt.Sprintf("tick %d", t))
		s.hashes[t] = h
	}
	return s
}

// walkBitrotImage is the harness image's one layout: a tick and its hash.
func walkBitrotImage(c journal.Codec, tick, hash *uint64) {
	c.Version(bitrotStateVersion)
	c.U64(tick)
	c.U64(hash)
}

func (s *bitrotState) payload(t int) []byte {
	s.enc.Reset()
	tick := uint64(t)
	walkBitrotImage(journal.Encoding(&s.enc), &tick, &s.hashes[t])
	return s.enc.Bytes()
}

func (s *bitrotState) decode(b []byte) (int, uint64, error) {
	d := journal.NewDecoder(b)
	var t, h uint64
	walkBitrotImage(journal.Decoding(d), &t, &h)
	return int(t), h, d.Err()
}

// RunBitrotStorm executes the bit-rot storm campaign described by cfg.
// Error returns are harness failures only; invariant breaks are reported
// in the BitrotStormReport so a test can print it with its seed.
func RunBitrotStorm(cfg BitrotStormConfig) (*BitrotStormReport, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("chaos: bitrot storm needs at least one day")
	}
	rep := &BitrotStormReport{Seed: cfg.Seed, Days: cfg.Days}

	if err := runBitrotStatePlane(cfg, rep); err != nil {
		return nil, err
	}
	if err := runBitrotFleetPlane(cfg, rep); err != nil {
		return nil, err
	}

	if rep.ScrubUnrepairable != 0 {
		rep.violate("%d corruptions of mirrored state were unrepairable", rep.ScrubUnrepairable)
	}
	return rep, nil
}

// runBitrotStatePlane drives the control-plane lane: a daemon-style state
// journal ticking through the storm on a failing disk, killed and
// recovered on the planned schedule.
func runBitrotStatePlane(cfg BitrotStormConfig, rep *BitrotStormReport) error {
	dir, err := os.MkdirTemp("", "insure-bitrot-state-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fcfg := cfg.StateFaults
	fcfg.Seed = cfg.Seed + bitrotStateLane
	fcfg.Root = dir
	fsys := diskfault.New(fcfg, nil)

	totalTicks := cfg.Days * bitrotTicksPerDay
	state := newBitrotState(cfg.Seed, totalTicks)
	plan := planBitrotDays(cfg)

	st, err := journal.OpenFS(fsys, dir)
	if err != nil {
		return err
	}
	lastAcked := -1 // newest tick whose commit was acknowledged durable

	// restart models a daemon bounce at tick now: close whatever is left
	// of the store, recover from disk, and check the recovered image is
	// authentic and recent. The plant itself keeps moving — recovery
	// re-drives it from live readings, the journal only has to prove it
	// never lies.
	restart := func(now int, kind string) error {
		_ = st.Close() // a poisoned store reports its poison; the crash eats it
		res, err := journal.LoadFS(fsys, dir)
		if err != nil {
			rep.violate("recovery at tick %d (%s) failed outright: %v", now, kind, err)
			rep.StormHash = fold(rep.StormHash, fmt.Sprintf("recover-fail %d %s", now, kind))
			// Harness cannot continue without a store; this is terminal.
			return fmt.Errorf("chaos: bitrot state plane unrecoverable at tick %d: %v", now, err)
		}
		recovered := -1
		if payload := res.Newest(); payload != nil {
			t, h, err := state.decode(payload)
			if err != nil || t < 0 || t >= totalTicks || state.hashes[t] != h {
				rep.violate("silent divergence at tick %d (%s): recovered image t=%d decode err=%v", now, kind, t, err)
			} else {
				recovered = t
			}
		}
		rollback := now - recovered
		if rollback > rep.MaxRollback {
			rep.MaxRollback = rollback
		}
		if rollback > bitrotSnapshotEvery+bitrotTornSlack {
			rep.violate("rollback of %d ticks at tick %d (%s) exceeds the %d-tick snapshot window", rollback, now, kind, bitrotSnapshotEvery)
		}
		rep.Restarts++
		rep.StormHash = fold(rep.StormHash, fmt.Sprintf("restart %d %s -> %d mid=%d fb=%v", now, kind, recovered, res.Midstream, res.SnapshotFallback))
		// A real daemon crash-loops until the disk lets it back in: Open
		// normalizes the pair, which can itself draw a stray fault.
		for attempt := 0; ; attempt++ {
			st, err = journal.OpenFS(fsys, dir)
			if err == nil || attempt == 2 {
				return err
			}
		}
	}

	sick := false // inside a planned sick-disk window
	down := false // store closed by a kill inside the window; reopens at its end
	for day := 0; day < cfg.Days; day++ {
		p := plan[day]
		nextKill := 0
		for tod := 0; tod < bitrotTicksPerDay; tod++ {
			now := day*bitrotTicksPerDay + tod
			rep.Ticks++

			// Sick-disk window: every fsync fails while it is open; at
			// close the operator replaces the disk and bounces the daemon.
			if !sick && tod >= p.sickStart && tod < p.sickEnd {
				sick = true
				rep.SickWindows++
				fsys.SetDegraded(true)
			}
			if sick && tod >= p.sickEnd {
				sick = false
				fsys.SetDegraded(false)
				down = false
				if err := restart(now, "sick-window-end"); err != nil {
					return err
				}
			}

			// Planned kills. A kill while the disk is sick leaves the
			// daemon down — reopening needs fsyncs the window denies —
			// until the window-end bounce recovers it.
			for nextKill < len(p.kills) && p.kills[nextKill].tick <= tod {
				e := p.kills[nextKill]
				nextKill++
				kind := "kill-clean"
				if e.kind == KillTorn {
					kind = "kill-torn"
					rep.TornKills++
					_ = st.Close()
					// The tear is the crash itself, not a disk fault: chop
					// the pair through the raw disk like the crash campaign.
					if err := journal.TruncateTail(dir, tornTailBytes); err != nil {
						return err
					}
				}
				if sick {
					_ = st.Close()
					down = true
					continue
				}
				if err := restart(now, kind); err != nil {
					return err
				}
			}

			// One plant tick, one commit. Inside a sick window commits
			// fail and the daemon limps on unacknowledged, exactly like
			// the real daemon's sticky store error.
			if down {
				continue
			}
			var cerr error
			if now%bitrotSnapshotEvery == 0 {
				cerr = st.Snapshot(state.payload(now))
			} else {
				_, cerr = st.Append(state.payload(now))
			}
			switch {
			case cerr == nil:
				lastAcked = now
				rep.Commits++
			case sick:
				// Expected: poisoned until the window closes.
			default:
				// A stray torn write, ENOSPC, or failed fsync poisoned the
				// store mid-day: the daemon crashes and recovers now.
				if err := restart(now, "fault-crash"); err != nil {
					return err
				}
			}

			// Background scrub cadence: mid-window sweeps catch at-rest
			// decay while the decayed generation is still current, before
			// the next snapshot rotation replaces it. A sick disk denies
			// the fsyncs a repair needs, so sweeps pause with the daemon.
			if !sick && !down && now%bitrotSnapshotEvery == bitrotSnapshotEvery/2 {
				if err := rep.scrub(fsys, dir, fmt.Sprintf("scrub t%d", now)); err != nil {
					return err
				}
			}
		}
		// A window that runs into the day boundary heals here.
		if sick {
			sick = false
			fsys.SetDegraded(false)
			down = false
			if err := restart((day+1)*bitrotTicksPerDay, "sick-day-end"); err != nil {
				return err
			}
		}
		if err := rep.scrub(fsys, dir, fmt.Sprintf("scrub day %d", day)); err != nil {
			return err
		}
	}

	// Storm over: final bounce proves the surviving state is authentic
	// and the journal never drifted beyond one window from the plant.
	if err := restart(totalTicks, "final"); err != nil {
		return err
	}
	if err := st.Close(); err != nil && st.Failed() == nil {
		return err
	}
	if err := rep.scrub(fsys, dir, "scrub final"); err != nil {
		return err
	}

	rep.StateFaults = fsys.Stats()
	rep.StormHash = fold(rep.StormHash, fmt.Sprintf("state-faults %+v acked %d", rep.StateFaults, lastAcked))
	if rep.StateFaults.TornWrites+rep.StateFaults.WriteFails+rep.StateFaults.SyncFails == 0 {
		rep.violate("storm injected no write or fsync faults on the state lane")
	}
	if rep.StateFaults.RotFlips == 0 {
		rep.violate("storm decayed nothing at rest on the state lane")
	}
	return nil
}

// runBitrotFleetPlane drives the fleet lane: the storm-site evacuation
// fixture, with the migration log and the checkpoint-image store both
// mounted on a decaying filesystem. The storm site's trough-day battery
// surges are what drive its ladder down far enough to checkpoint VMs and
// ship their images across the decaying store.
func runBitrotFleetPlane(cfg BitrotStormConfig, rep *BitrotStormReport) error {
	dir, err := os.MkdirTemp("", "insure-bitrot-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logDir := filepath.Join(dir, "miglog")
	imgDir := filepath.Join(dir, "images")
	fcfg := cfg.FleetFaults
	fcfg.Seed = cfg.Seed + bitrotFleetLane
	fcfg.Root = dir
	fsys := diskfault.New(fcfg, nil)

	scfg := DefaultSiteLossConfig(cfg.Seed)
	scfg.Days, scfg.Migration = cfg.Days, true
	f, err := newStormFleet(scfg, &rep.Verdict)
	if err != nil {
		return err
	}
	net, err := wan.New(wan.Config{
		Seed: cfg.Seed, Sites: scfg.Sites,
		DropRate: bitrotDropRate, CorruptRate: bitrotCorruptRate,
	})
	if err != nil {
		return err
	}
	images, err := fleet.NewImageStore(fsys, imgDir)
	if err != nil {
		return err
	}
	c, err := f.coordinator(fleet.Config{WAN: net, LogDir: logDir, LogFS: fsys, Images: images})
	if err != nil {
		return err
	}
	defer c.Close()
	// Day-boundary scrub: one recursive sweep repairs decayed mirror
	// copies across the log pair, the sealed segments, and every landed
	// checkpoint-image pair.
	err = f.run(func(day int) error {
		for _, d := range []string{logDir, imgDir} {
			if err := rep.scrub(fsys, d, fmt.Sprintf("fleet-scrub %d %s", day, filepath.Base(d))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	tot := c.Report().Totals
	rep.JobsMoved = tot.JobsMoved
	rep.MigratedGB = tot.MigratedGB
	rep.JobsDoubleRun = tot.JobsDoubleRun
	rep.SplitBrain = tot.SplitBrain
	ist := images.Stats()
	rep.ImagesLanded = ist.Landed
	rep.ImagesVerified = ist.Verified
	rep.ImagesRepaired = ist.Repaired
	rep.ImagesCorrupt = ist.Corrupt
	rep.ImagesReshipped = ist.Reshipped
	rep.FleetFaults = fsys.Stats()

	f.guard(tot)
	if rep.ImagesLanded == 0 {
		rep.violate("storm evacuation landed no checkpoint images")
	}
	if rep.ImagesCorrupt != rep.ImagesReshipped {
		rep.violate("%d corrupt landings but %d re-ships: a damaged image was counted restored", rep.ImagesCorrupt, rep.ImagesReshipped)
	}
	if rep.FleetFaults.RotFlips == 0 {
		rep.violate("storm decayed nothing at rest on the fleet lane")
	}
	// Reconcile through the rot: the audit replays the log over the SAME
	// decaying filesystem, so the mirrored pairs must mask every flipped
	// bit.
	if err := f.audit(tot); err != nil {
		return err
	}

	rep.StormHash = fold(rep.StormHash, fmt.Sprintf("fleet traj %#x tot %+v img %+v faults %+v", f.hash, tot, ist, rep.FleetFaults))
	return nil
}
