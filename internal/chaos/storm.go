package chaos

import (
	"fmt"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/genset"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/units"
)

// The storm campaign is the survivability layer's proving ground: a seeded
// multi-day stretch of low-generation weather (the paper's 427 W overcast
// day and worse), one battery bank and one control plane carried across all
// of it. With survivability enabled the campaign asserts the emergency
// contract per tick — zero VMs lost uncheckpointed, zero crash-brownouts,
// every ladder move between adjacent rungs — and optionally hard-kills the
// controller mid-emergency to prove recovery lands in the same rung and
// continues bit-identically. With survivability disabled the same storm
// records what the baseline loses, giving the on/off comparison.

// StormConfig shapes a multi-day low-generation storm campaign.
type StormConfig struct {
	// Seed drives the per-day trace synthesis; the same seed reproduces
	// the storm bit-for-bit.
	Seed int64
	// Days is the storm length (the acceptance bar is >= 3).
	Days int
	// Batteries and Servers size the plant.
	Batteries int
	Servers   int
	// Survival attaches the survivability mode machine; off runs the
	// baseline InSURE manager through the same weather.
	Survival bool
	// Genset fits a diesel backup generator for last-resort dispatch.
	Genset bool
	// KillDay, when >= 0, hard-kills the controller on that day at the
	// first control pass spent at Conservative or deeper — a kill in the
	// middle of the emergency — and recovers it from StateDir. The
	// campaign then runs an uninterrupted twin first and asserts the
	// interrupted run recovers into the same ladder rung and finishes
	// with an identical trajectory.
	KillDay int
	// StateDir is where the interrupted run journals its control state
	// (required when KillDay >= 0).
	StateDir string
}

// DefaultStormConfig is the acceptance storm: three days, prototype plant.
func DefaultStormConfig(seed int64) StormConfig {
	return StormConfig{
		Seed:      seed,
		Days:      3,
		Batteries: plantBatteries,
		Servers:   plantServers,
		KillDay:   -1,
	}
}

// StormReport is the outcome of one storm campaign.
type StormReport struct {
	Seed     int64
	Days     int
	Survival bool

	// Aggregate outcomes across all days.
	Brownouts   int
	VMsLost     int
	VMsSaved    int
	ProcessedGB float64
	MeanUptime  float64

	// Mode-machine accounting (zero when Survival is off).
	ModeTransitions int
	FinalMode       core.OpMode
	Recoveries      int

	// Generator accounting (zero when no genset is fitted).
	GenStarts    int
	GenRunHours  float64
	GenKWh       float64
	GenFuelCost  float64
	GenWastedKWh float64

	// TrajectoryHash chains every day's recorded frames; two storms agree
	// only if the plant moved identically through all days.
	TrajectoryHash uint64

	Verdict
}

// String is the one-line summary a failing test prints with the seed.
func (r *StormReport) String() string {
	return fmt.Sprintf("storm seed %d: %d days (survival %v), brownouts %d, VMs lost %d / saved %d, %d mode transitions ending %s, %d recoveries, genset %d starts %.2f h $%.2f, %d violations",
		r.Seed, r.Days, r.Survival, r.Brownouts, r.VMsLost, r.VMsSaved,
		r.ModeTransitions, r.FinalMode, r.Recoveries,
		r.GenStarts, r.GenRunHours, r.GenFuelCost, r.ViolationCount)
}

// stormDayTrace synthesizes one storm day. The storm centres on the
// paper's low-generation figure (427 W average, Fig 15b) and drops every
// third day to a deeper trough, so a multi-day stretch cannot be bridged
// by the buffer alone.
func stormDayTrace(seed int64, day int) *trace.Trace {
	avg := 427.0
	if day%3 == 1 {
		avg = 190.0
	}
	tr := trace.Synthesize(solar.Rainy, seed+int64(day), time.Second)
	return tr.ScaleToEnergy(units.WattHour(avg * tr.Duration().Hours()))
}

// stormDayFaults is the storm's surge damage: on each trough day the storm
// front takes out most of the bank's capacity in quick succession — shorted
// cells from lightning surges — right while the buffer is carrying the
// midday load. The weather alone is survivable by riding the buffer; the
// surge is what turns the trough into an emergency.
func stormDayFaults(day, batteries int) faults.Plan {
	if day%3 != 1 {
		return nil
	}
	n := batteries - 2 // leave a remnant so recovery is possible at all
	if n < 1 {
		n = 1
	}
	plan := make(faults.Plan, 0, n)
	for i := 0; i < n; i++ {
		plan = append(plan, faults.Event{
			At:        13*time.Hour + time.Duration(i)*10*time.Minute,
			Kind:      faults.BatteryFail,
			Unit:      i,
			Magnitude: 0.75,
		})
	}
	return plan
}

// RunStorm executes the storm campaign described by cfg. Error returns are
// harness failures only; invariant breaks are reported in the StormReport
// so a test can print it with its seed.
func RunStorm(cfg StormConfig) (*StormReport, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("chaos: storm needs at least one day")
	}
	if cfg.KillDay >= 0 {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("chaos: KillDay requires StateDir")
		}
		if cfg.KillDay >= cfg.Days {
			return nil, fmt.Errorf("chaos: KillDay %d outside the %d-day storm", cfg.KillDay, cfg.Days)
		}
		// Uninterrupted twin first, then the interrupted run; the kill must
		// be invisible in the trajectory.
		ref, err := runStorm(cfg, false)
		if err != nil {
			return nil, err
		}
		rep, err := runStorm(cfg, true)
		if err != nil {
			return nil, err
		}
		if rep.Recoveries == 0 {
			rep.violate("kill day %d produced no recovery (emergency never reached?)", cfg.KillDay)
		}
		if rep.TrajectoryHash != ref.TrajectoryHash {
			rep.violate("interrupted storm trajectory %x diverged from uninterrupted %x",
				rep.TrajectoryHash, ref.TrajectoryHash)
		}
		if rep.FinalMode != ref.FinalMode {
			rep.violate("interrupted storm ended in rung %s, uninterrupted in %s", rep.FinalMode, ref.FinalMode)
		}
		if rep.ModeTransitions != ref.ModeTransitions {
			rep.violate("interrupted storm made %d ladder moves, uninterrupted %d",
				rep.ModeTransitions, ref.ModeTransitions)
		}
		rep.ViolationCount += ref.ViolationCount
		rep.Violations = append(rep.Violations, ref.Violations...)
		return rep, nil
	}
	return runStorm(cfg, false)
}

// runStorm is one pass over the storm. With kill set, the controller is
// hard-stopped on cfg.KillDay at the first control pass spent in an
// emergency rung and recovered from the journal in cfg.StateDir.
func runStorm(cfg StormConfig, kill bool) (*StormReport, error) {
	mcfg := core.DefaultConfig()
	if cfg.Survival {
		mcfg.Survival = core.DefaultSurvivalConfig()
	}
	mgr := core.New(mcfg, cfg.Batteries)
	// The storm arrives mid-drought: the bank has already been run down to
	// the dispatch floor, so the first dark morning genuinely forces the
	// ladder (and, when fitted, the last-resort generator) into play.
	bank, err := battery.NewBank(battery.DefaultParams(), cfg.Batteries, 0.30)
	if err != nil {
		return nil, err
	}
	var gen *genset.Generator
	if cfg.Genset {
		gen = genset.New(genset.DieselParams())
	}
	reg := telemetry.NewRegistry()
	mgr.AttachTelemetry(reg)

	var store *journal.Store
	var drive sim.Manager = mgr
	if kill {
		store, err = journal.Open(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		defer func() { store.Close() }()
		drive = core.NewJournaled(mgr, store)
	}

	rep := &StormReport{Seed: cfg.Seed, Days: cfg.Days, Survival: cfg.Survival}
	period := mgr.Period()
	killed := false

	for day := 0; day < cfg.Days; day++ {
		scfg := sim.DefaultConfig(stormDayTrace(cfg.Seed, day))
		scfg.BatteryCount = cfg.Batteries
		scfg.ServerCount = cfg.Servers
		scfg.RecordEvery = time.Minute
		scfg.Bank = bank
		scfg.Secondary = gen
		sys, err := sim.New(scfg, sim.NewVideoSink())
		if err != nil {
			return nil, err
		}
		sys.AttachTelemetry(reg)
		// The emergency contract: with survivability on duty, no VM state
		// is ever lost to a power cut.
		w := newWatch(&rep.Verdict, fmt.Sprintf("day %d: ", day), sys, mgr,
			stormDayFaults(day, cfg.Batteries), cfg.Survival)

		start, end := sys.Span()
		killNext := false
		for tod := start; tod < end; tod += time.Second {
			if killNext && !killed {
				// The controller process dies one second after committing a
				// pass mid-emergency.
				killNext = false
				killed = true
				died := mgr.Mode()
				if mgr, store, err = restart(w, store, cfg.StateDir, false, mcfg, reg, tod); err != nil {
					return nil, fmt.Errorf("chaos: storm day %d: %w", day, err)
				}
				if mgr.Mode() != died {
					rep.violate("recovery landed in rung %s, controller died in %s", mgr.Mode(), died)
				}
				drive = core.NewJournaled(mgr, store)
			}

			sys.Tick(tod, drive)

			if kill && !killed && day == cfg.KillDay &&
				mgr.Mode() >= core.ModeConservative && tod%period == 0 {
				killNext = true
			}
		}

		w.settle()
		res := sys.Finish(drive)
		if jm, ok := drive.(*core.JournaledManager); ok {
			if err := jm.Err(); err != nil {
				return nil, fmt.Errorf("chaos: storm journal commit on day %d: %w", day, err)
			}
		}
		rep.Brownouts += res.Brownouts
		rep.VMsLost += res.VMsLost
		rep.VMsSaved += res.VMsSaved
		rep.ProcessedGB += res.ProcessedGB
		rep.MeanUptime += res.UptimeFrac / float64(cfg.Days)
		rep.TrajectoryHash = chain(rep.TrajectoryHash, hashFrames(sys.Recorder().Frames()))
	}

	rep.ModeTransitions = mgr.ModeTransitions()
	rep.FinalMode = mgr.Mode()
	rep.Recoveries = mgr.Recoveries()
	if gen != nil {
		rep.GenStarts = gen.Starts()
		rep.GenRunHours = gen.RunTime().Hours()
		rep.GenKWh = gen.Delivered().KWh()
		rep.GenFuelCost = gen.FuelCost()
		rep.GenWastedKWh = gen.Wasted().KWh()
	}
	if cfg.Survival {
		if rep.Brownouts > 0 {
			rep.violate("survival-managed storm crash-browned out %d times", rep.Brownouts)
		}
		if rep.VMsLost > 0 {
			rep.violate("survival-managed storm lost %d VMs uncheckpointed", rep.VMsLost)
		}
	}
	return rep, nil
}
