package chaos

import (
	"fmt"
	"math"
	"time"

	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// Report is the outcome of one campaign.
type Report struct {
	Seed   int64
	Events int

	// Event counts by kind, as planned.
	Kills, TornKills, Partitions, SensorFaults, HardwareFaults int

	// Recoveries the control state has accumulated (persisted across
	// incarnations, so this equals the kill count when recovery works)
	// and relay pairs reconciliation re-drove.
	Recoveries      int
	Reconciliations int

	// Invariant violations observed on either day.
	Verdict

	// Chaos-day vs reference-day outcomes.
	Brownouts, RefBrownouts       int
	EndSoC, RefEndSoC             float64
	UptimeFrac, RefUptimeFrac     float64
	TrajectoryHash, RefTrajectory uint64

	// Converged reports whether the chaos day ended within the
	// convergence band of the reference day with no extra brownouts.
	Converged bool
}

// String is the one-line summary a failing test prints with the seed.
func (r *Report) String() string {
	return fmt.Sprintf("seed %d: %d events (%d kills, %d torn, %d partitions, %d sensor, %d hardware), %d recoveries, %d reconciled, %d violations, brownouts %d/%d ref, SoC %.4f/%.4f ref, converged %v",
		r.Seed, r.Events, r.Kills, r.TornKills, r.Partitions, r.SensorFaults, r.HardwareFaults,
		r.Recoveries, r.Reconciliations, r.ViolationCount, r.Brownouts, r.RefBrownouts,
		r.EndSoC, r.RefEndSoC, r.Converged)
}

// newWorld assembles one prototype plant and its manager under a watch
// that lands plan and reports into v.
func newWorld(v *Verdict, plan faults.Plan) (*watch, error) {
	scfg := sim.DefaultConfig(trace.FullSystemHigh())
	scfg.BatteryCount = plantBatteries
	scfg.ServerCount = plantServers
	scfg.RecordEvery = time.Minute
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		return nil, err
	}
	return newWatch(v, "", sys, core.New(core.DefaultConfig(), plantBatteries), plan, false), nil
}

// Run executes the campaign described by cfg and reports the outcome.
// The only error returns are harness failures (bad config, journal I/O,
// fieldbus setup); invariant breaks are reported, not errored, so a test
// can print the full report with its seed.
func Run(cfg Config) (*Report, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("chaos: StateDir is required")
	}
	plan, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: cfg.Seed, Events: len(plan)}
	for _, e := range plan {
		switch e.Kind {
		case KillClean:
			rep.Kills++
		case KillTorn:
			rep.TornKills++
		case Partition:
			rep.Partitions++
		case SensorFault:
			rep.SensorFaults++
		case HardwareFault:
			rep.HardwareFaults++
		}
	}
	faultPlan := faultPlanOf(plan)

	// Reference day, the uninterrupted twin: same plant, same hardware
	// fault plan, no kills, no partitions.
	ref, err := newWorld(&rep.Verdict, faultPlan)
	if err != nil {
		return nil, err
	}
	start, end := ref.sys.Span()
	for tod := start; tod < end; tod += time.Second {
		ref.sys.Tick(tod, ref.mgr)
	}
	ref.settle()
	refRes := ref.sys.Finish(ref.mgr)

	// Chaos day.
	w, err := newWorld(&rep.Verdict, faultPlan)
	if err != nil {
		return nil, err
	}
	sys, mgr := w.sys, w.mgr
	reg := telemetry.NewRegistry()
	mgr.AttachTelemetry(reg)
	store, err := journal.Open(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	defer func() { store.Close() }()
	jm := core.NewJournaled(mgr, store)
	// Append-only journaling: every record stays a delta on the tail, so a
	// KillTorn always has a freshly-written record to tear, never a
	// just-rotated empty file.
	jm.SnapshotEvery = 0

	var proxy *faults.FlakyProxy
	if cfg.Remote {
		addr, stopServer, err := sys.ServePanel()
		if err != nil {
			return nil, err
		}
		defer stopServer()
		proxy, err = faults.NewFlakyProxy(addr)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		cli, stopClient, err := sys.ConnectRemote(proxy.Addr())
		if err != nil {
			return nil, err
		}
		defer stopClient()
		// Partitions fail fast (connection resets, not silent drops), so
		// an aggressive timeout/retry policy keeps the campaign at full
		// speed without changing any plant value: the fieldbus fallback
		// path reads and writes the same registers the client would.
		cli.Timeout = 250 * time.Millisecond
		cli.MaxRetries = 1
		cli.RetryBackoff = time.Millisecond
	}

	period := mgr.Period()
	var killTimes []time.Duration
	healAt := time.Duration(-1)
	next := 0
	for tod := start; tod < end; tod += time.Second {
		if healAt >= 0 && tod >= healAt {
			proxy.SetPartition(false)
			healAt = -1
		}
		for next < len(plan) && plan[next].At <= tod {
			e := plan[next]
			next++
			switch e.Kind {
			case Partition:
				if proxy != nil {
					proxy.SetPartition(true)
					if h := e.At + e.Dur; h > healAt {
						healAt = h
					}
				}
			case KillClean, KillTorn:
				mgr, store, err = restart(w, store, cfg.StateDir, e.Kind == KillTorn, core.DefaultConfig(), reg, tod)
				if err != nil {
					return nil, fmt.Errorf("chaos: %v: %w", e.Kind, err)
				}
				jm = core.NewJournaled(mgr, store)
				jm.SnapshotEvery = 0
				killTimes = append(killTimes, tod)
			}
		}
		sys.Tick(tod, jm)
	}
	if err := jm.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal commit: %w", err)
	}
	w.settle()
	res := sys.Finish(jm)

	rep.Recoveries = mgr.Recoveries()
	rep.Reconciliations = mgr.Reconciliations()
	rep.Brownouts = res.Brownouts
	rep.RefBrownouts = refRes.Brownouts
	rep.EndSoC = sys.Bank.MeanSoC()
	rep.RefEndSoC = ref.sys.Bank.MeanSoC()
	rep.UptimeFrac = res.UptimeFrac
	rep.RefUptimeFrac = refRes.UptimeFrac
	rep.TrajectoryHash = hashFrames(sys.Recorder().Frames())
	rep.RefTrajectory = hashFrames(ref.sys.Recorder().Frames())

	// No recovery-induced brownouts: a brownout inside a recovery window
	// must have a counterpart in the reference day — the plant was going
	// down anyway; recovery did not push it over.
	for _, t := range w.brownTicks {
		if !inRecoveryWindow(t, killTimes, period) {
			continue
		}
		if !nearAny(t, ref.brownTicks, 2*period) {
			rep.violate("brownout at %v inside a recovery window with no reference counterpart", t)
		}
	}
	rep.Converged = rep.Brownouts <= rep.RefBrownouts &&
		math.Abs(rep.EndSoC-rep.RefEndSoC) <= 0.03 &&
		math.Abs(rep.UptimeFrac-rep.RefUptimeFrac) <= 0.02
	return rep, nil
}

// inRecoveryWindow reports whether t falls within two control periods
// after any kill.
func inRecoveryWindow(t time.Duration, kills []time.Duration, period time.Duration) bool {
	for _, k := range kills {
		if t >= k && t <= k+2*period {
			return true
		}
	}
	return false
}

// nearAny reports whether t is within tol of any value in set.
func nearAny(t time.Duration, set []time.Duration, tol time.Duration) bool {
	for _, s := range set {
		d := t - s
		if d < 0 {
			d = -d
		}
		if d <= tol {
			return true
		}
	}
	return false
}
