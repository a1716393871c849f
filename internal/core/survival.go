package core

import (
	"fmt"
	"math"
	"time"

	"insure/internal/logbook"
	"insure/internal/sim"
	"insure/internal/units"
	"insure/internal/workload"
)

// This file is the energy-emergency survivability layer: a hysteresis-
// guarded operating-mode ladder the manager walks as the energy outlook
// degrades, so the plant sheds load, checkpoints, and goes dark *on its own
// terms* instead of crashing when the bus collapses (§2.3's disruption).
//
//	Normal → Conservative → Survival → Blackout → Blackstart → Normal
//
// Each downgrade sheds load through the knobs the paper already uses —
// VM-count reduction for stream jobs, DVFS duty cuts for batch — and the
// Survival→Blackout edge is the orderly pre-brownout shutdown: it fires
// while the buffer still holds enough energy for every node's checkpoint to
// complete before the projected power-loss instant. When shedding cannot
// bridge the forecast gap, the secondary generator (Fig 6/7 "S") is
// dispatched as a last resort, start-delay-aware. After total depletion the
// Blackout→Blackstart edge waits for the batteries to recover to a restart
// SoC and then cold-boots the cluster in stages sized to the instantaneous
// budget, restoring the checkpointed VMs.

// OpMode is a rung on the survivability ladder.
type OpMode int

const (
	// ModeNormal is unconstrained operation under the ordinary SPM/TPM
	// policy.
	ModeNormal OpMode = iota
	// ModeConservative sheds marginal load early: stream VM counts are
	// capped below full and batch duty is capped, trading throughput for
	// buffer endurance.
	ModeConservative
	// ModeSurvival keeps only minimal service (one node) alive and arms the
	// orderly-shutdown trigger.
	ModeSurvival
	// ModeBlackout is the dark plant: every VM checkpointed, every node
	// off, waiting for the buffer to recover.
	ModeBlackout
	// ModeBlackstart is the staged cold boot back from a blackout.
	ModeBlackstart
)

func (o OpMode) String() string {
	switch o {
	case ModeNormal:
		return "normal"
	case ModeConservative:
		return "conservative"
	case ModeSurvival:
		return "survival"
	case ModeBlackout:
		return "blackout"
	case ModeBlackstart:
		return "blackstart"
	default:
		return fmt.Sprintf("OpMode(%d)", int(o))
	}
}

// LadderAdjacent reports whether a→b is a legal single step along the mode
// ladder. Upgrades and downgrades both move one rung; the only extra edge
// is Blackstart→Blackout, the abort path when a storm returns mid-boot.
// The chaos storm campaign asserts every observed transition against this.
func LadderAdjacent(a, b OpMode) bool {
	switch a {
	case ModeNormal:
		return b == ModeConservative
	case ModeConservative:
		return b == ModeNormal || b == ModeSurvival
	case ModeSurvival:
		return b == ModeConservative || b == ModeBlackout
	case ModeBlackout:
		return b == ModeBlackstart
	case ModeBlackstart:
		return b == ModeNormal || b == ModeBlackout
	}
	return false
}

// SurvivalConfig switches the survivability ladder.
type SurvivalConfig struct {
	// Enabled switches the whole layer on.
	Enabled bool
}

// DefaultSurvivalConfig returns the ladder the storm campaign validates.
func DefaultSurvivalConfig() SurvivalConfig {
	return SurvivalConfig{Enabled: true}
}

// The ladder's tuning, the one the storm campaign validates.
const (
	// conservativeSoC and survivalSoC are the downgrade thresholds on the
	// bank's mean usable SoC; hysteresis is added on top for the matching
	// upgrade, so the ladder never flaps on sensor noise.
	conservativeSoC = 0.45
	survivalSoC     = 0.32
	hysteresis      = 0.08

	// restartSoC gates Blackout→Blackstart: the batteries must recover this
	// far before the cluster cold-boots, so the boot itself (restore power
	// with no revenue work) cannot re-deplete the bank.
	restartSoC = 0.40

	// outlookHorizon is the forecast window the ladder plans against.
	outlookHorizon = 2 * time.Hour
	// minHold is the dwell before any upgrade; downgrades act immediately
	// (safety never waits out a timer).
	minHold = 10 * time.Minute

	// conservativeVMFrac caps stream VM counts and conservativeDutyCap caps
	// batch duty while in Conservative.
	conservativeVMFrac  = 0.75
	conservativeDutyCap = 0.8

	// shutdownSafety scales the checkpoint window: the orderly shutdown
	// fires when the projected time-to-depletion falls below
	// shutdownSafety × CheckpointFor(full occupancy).
	shutdownSafety = 1.5

	// gensetLead is margin added to the generator's StartDelay when
	// deciding how late a dispatch may wait and still arrive in time.
	gensetLead = 2 * time.Minute
)

// survival is the mode machine's mutable state (journaled; see state.go).
type survival struct {
	mode        OpMode
	modeSince   time.Duration
	transitions int

	// shedWatts is the load the current posture withholds versus what the
	// raw power budget would support (telemetry).
	shedWatts float64

	// bsTarget is the blackstart sequencer's current staged VM target.
	bsTarget int
}

// Mode returns the survivability rung the manager currently operates in
// (ModeNormal when the layer is disabled).
func (m *Manager) Mode() OpMode {
	if m.sv == nil {
		return ModeNormal
	}
	return m.sv.mode
}

// ModeTransitions counts ladder transitions over the manager's life.
func (m *Manager) ModeTransitions() int {
	if m.sv == nil {
		return 0
	}
	return m.sv.transitions
}

// SurvivalEnabled reports whether the survivability layer is active.
func (m *Manager) SurvivalEnabled() bool { return m.sv != nil }

// SetModeHook registers fn to run after every ladder transition with the
// transition time and the rungs moved between. The fleet coordinator uses
// it as the migrate-before-shed trigger: a downgrade means this plant is
// about to shed work that could instead move to a site with surplus.
// Passing nil removes the hook. The hook is an observer only — it runs
// inside the control pass and must not mutate the manager or the plant.
func (m *Manager) SetModeHook(fn func(now time.Duration, from, to OpMode)) {
	m.modeHook = fn
}

// setMode performs one ladder transition, with telemetry and a logbook
// entry. Transitions are always adjacent (LadderAdjacent); callers only
// ever move one rung per control pass.
func (m *Manager) setMode(sys *sim.System, now time.Duration, to OpMode, why string) {
	sv := m.sv
	if to == sv.mode {
		return
	}
	from := sv.mode
	sv.mode = to
	sv.modeSince = now
	sv.transitions++
	if m.tel != nil {
		m.tel.mode.Set(float64(to))
		m.tel.modeTransitions.Inc()
		// Blackout is the one rung where the right load-balancer answer is
		// "stop sending anything": /healthz flips to 503/draining there.
		m.tel.reg.SetOpMode(to.String(), to == ModeBlackout)
	}
	class := logbook.Power
	if to == ModeSurvival || to == ModeBlackout {
		class = logbook.Emergency
	}
	sys.Log.Addf(now, class, "survival", "mode %s -> %s: %s", from, to, why)
	if m.modeHook != nil {
		m.modeHook(now, from, to)
	}
}

// checkpointWindow is the worst-case orderly-shutdown duration: every node
// checkpoints in parallel, so the window is one fully-occupied node's save.
func checkpointWindow(sys *sim.System) time.Duration {
	prof := sys.Config().ServerProfile
	return prof.CheckpointFor(prof.VMSlots)
}

// forecastWh integrates the conservative supply forecast over the horizon.
func (m *Manager) forecastWh(sys *sim.System, now time.Duration, horizon time.Duration) float64 {
	const step = 5 * time.Minute
	var total float64
	if m.fc != nil {
		for t := now; t < now+horizon; t += step {
			total += float64(m.fc.ConservativePredict(t, 1)) * step.Hours()
		}
		return total
	}
	// No estimator: flat-line the dimmed present supply.
	return 0.75 * float64(sys.SolarNow()) * horizon.Hours()
}

// projectDepletion estimates how long the usable buffer lasts while holding
// demandW against the forecast supply. Recharge surpluses are not credited
// (conservative), and anything beyond the horizon reads as the horizon.
func (m *Manager) projectDepletion(sys *sim.System, now time.Duration, demandW, usableWh float64) time.Duration {
	horizon := outlookHorizon
	if demandW <= 0 {
		return horizon
	}
	const step = 5 * time.Minute
	remaining := usableWh
	for t := now; t < now+horizon; t += step {
		var supply float64
		if m.fc != nil {
			supply = float64(m.fc.ConservativePredict(t, 1))
		} else {
			supply = 0.75 * float64(sys.SolarNow())
		}
		if net := demandW - supply; net > 0 {
			remaining -= net * step.Hours()
			if remaining <= 0 {
				return t - now
			}
		}
	}
	return horizon
}

// budgetFitVMs is the VM count the present power budget supports, with the
// same dispatch margins planLoad uses plus blackstart headroom.
func (m *Manager) budgetFitVMs(sys *sim.System) int {
	reserve := m.dischargeablePower(sys)
	if sys.Sink.Spec().Kind != workload.Batch {
		reserve = units.Watt(0.7 * float64(reserve))
	}
	budget := sys.SolarNow() + reserve
	if gen := sys.Secondary; gen != nil && gen.Available() {
		budget += units.Watt(0.9 * float64(gen.Params().Rated))
	}
	budget = units.Watt(0.85 * float64(budget))
	prof, util := &sys.Config().ServerProfile, sys.Sink.Spec().Util
	for n := sys.Cluster.TotalVMSlots(); n >= 1; n-- {
		if prof.Draw(n, util, m.duty) <= budget {
			return n
		}
	}
	return 0
}

// ckptSupportNodes is how many nodes the plant could checkpoint in
// parallel right now. A checkpointing node draws the profile's
// TransitionDraw for minutes, so the bound is set by deliverable power,
// not stored energy: dimmed solar, a sustained C/2 draw from every unit
// still holding usable charge (the physical well limit, not the SPM's
// gentler per-unit dispatch cap), and the genset when one is fitted and
// fueled. The 0.85 margin keeps an in-flight checkpoint funded when the
// count ticks down a step mid-save (evening solar decay, a unit sagging
// below the floor).
func (m *Manager) ckptSupportNodes(sys *sim.System, now time.Duration) int {
	ckptW := float64(sys.Config().ServerProfile.TransitionDraw())
	if ckptW <= 0 {
		return sys.Config().ServerCount
	}
	p := sys.Config().BatteryParams
	perUnit := 0.5 * float64(p.CapacityAh) * float64(p.NominalVolt)
	supply := float64(m.dimmedSupply(sys, now))
	for i := range m.groups {
		if m.watch.quarantined[i] || m.groups[i] == GroupOffline {
			continue
		}
		if sys.EstimatedSoC(i) > minSoC+0.05 {
			supply += perUnit
		}
	}
	if gen := sys.Secondary; gen != nil && gen.Available() {
		supply += 0.9 * float64(gen.Params().Rated)
	}
	return int(0.85 * supply / ckptW)
}

// vmCap is the survival posture's ceiling on the VM target.
func (sv *survival) vmCap(maxVMs, slots int) int {
	switch sv.mode {
	case ModeConservative:
		c := int(math.Ceil(conservativeVMFrac * float64(maxVMs)))
		if c < 1 {
			c = 1
		}
		return c
	case ModeSurvival:
		// Minimal service: one node's worth of VMs.
		return slots
	case ModeBlackout:
		return 0
	case ModeBlackstart:
		return sv.bsTarget
	}
	return maxVMs
}

// dutyCap is the survival posture's ceiling on the batch DVFS duty cycle.
func (sv *survival) dutyCap(minDuty float64) float64 {
	switch sv.mode {
	case ModeConservative:
		return conservativeDutyCap
	case ModeSurvival:
		return minDuty
	}
	return 1
}

// blocksService reports whether the posture forbids any cluster service.
func (sv *survival) blocksService() bool { return sv.mode == ModeBlackout }

// surviveEvaluate is the per-period ladder walk: classify the energy
// outlook, move at most one rung, and run the last-resort generator
// dispatch. It runs before planLoad so the posture caps apply to this
// pass's load plan.
func (m *Manager) surviveEvaluate(sys *sim.System, now time.Duration) {
	sv := m.sv
	p := sys.Config().BatteryParams
	unitWh := float64(p.CapacityAh) * float64(p.NominalVolt)

	var socSum, usableWh float64
	n := 0
	for i := range m.groups {
		if m.watch.quarantined[i] {
			continue
		}
		soc := sys.EstimatedSoC(i)
		socSum += soc
		if soc > minSoC {
			usableWh += (soc - minSoC) * unitWh
		}
		n++
	}
	socMean := 0.0
	if n > 0 {
		socMean = socSum / float64(n)
	}

	demandW := float64(sys.Cluster.Power())
	supplyWh := m.forecastWh(sys, now, outlookHorizon)
	demandWh := demandW * outlookHorizon.Hours()
	// gapWh > 0 means the horizon cannot be bridged at the current posture
	// even by draining the whole usable buffer.
	gapWh := demandWh - supplyWh - usableWh
	tdep := m.projectDepletion(sys, now, demandW, usableWh)
	dwell := now - sv.modeSince

	ckptBudget := time.Duration(shutdownSafety * float64(checkpointWindow(sys)))

	switch sv.mode {
	case ModeNormal:
		if socMean < conservativeSoC || gapWh > 0 {
			m.setMode(sys, now, ModeConservative,
				fmt.Sprintf("SoC %.2f, horizon gap %.0f Wh", socMean, gapWh))
		}

	case ModeConservative:
		switch {
		case socMean < survivalSoC || (gapWh > 0 && tdep < outlookHorizon/2):
			m.setMode(sys, now, ModeSurvival,
				fmt.Sprintf("SoC %.2f, depletion in %v", socMean, tdep))
		case socMean >= conservativeSoC+hysteresis && gapWh <= 0 && dwell >= minHold:
			m.setMode(sys, now, ModeNormal, fmt.Sprintf("SoC %.2f, outlook clear", socMean))
		}

	case ModeSurvival:
		switch {
		case sys.Cluster.AnyRunning() && (tdep <= ckptBudget || m.ckptSupportNodes(sys, now) == 0):
			// The orderly pre-brownout shutdown: fire while the buffer still
			// covers every node's checkpoint, so no VM state is ever lost to
			// the bus collapsing mid-save. Deliverable-power collapse (a
			// unit dying or quarantining out from under the load) counts as
			// depletion-now even when the energy projection looks survivable.
			sys.Cluster.Shutdown()
			m.targetVM = 0
			m.setMode(sys, now, ModeBlackout,
				fmt.Sprintf("depletion in %v inside the %v checkpoint window", tdep, ckptBudget))
		case !sys.Cluster.AnyRunning() && socMean < emergencySoC:
			m.setMode(sys, now, ModeBlackout, fmt.Sprintf("buffer depleted at SoC %.2f", socMean))
		case socMean >= math.Max(survivalSoC+hysteresis, conservativeSoC) &&
			gapWh <= 0 && dwell >= minHold:
			// Leaving the emergency rung re-arms battery-funded serving, so
			// the upgrade waits for the Conservative threshold itself — a
			// recovery that only just clears the survival band would be
			// drained straight back down by the load it re-enables.
			m.setMode(sys, now, ModeConservative, fmt.Sprintf("SoC recovered to %.2f", socMean))
		}

	case ModeBlackout:
		if socMean >= restartSoC && demandW == 0 && dwell >= minHold {
			// Re-commission every unit holding usable charge: blackstart
			// runs on what the plant has, not on the 90% charge target.
			for i := range m.groups {
				if m.watch.quarantined[i] || m.groups[i] == GroupOffline {
					continue
				}
				if sys.EstimatedSoC(i) >= minSoC+0.1 {
					m.commissioned[i] = true
					if m.groups[i] == GroupCharging {
						m.groups[i] = GroupStandby
					}
				}
			}
			sv.bsTarget = 0
			m.setMode(sys, now, ModeBlackstart, fmt.Sprintf("bank recovered to SoC %.2f", socMean))
		}

	case ModeBlackstart:
		switch {
		case socMean < survivalSoC || (sys.Cluster.AnyRunning() && tdep <= ckptBudget):
			// The storm came back mid-boot: abort back into blackout with an
			// orderly checkpoint, never a crash.
			sys.Cluster.Shutdown()
			m.targetVM = 0
			m.setMode(sys, now, ModeBlackout, fmt.Sprintf("blackstart aborted at SoC %.2f", socMean))
		default:
			fit := m.budgetFitVMs(sys)
			slots := sys.Config().ServerProfile.VMSlots
			switch {
			case sv.bsTarget == 0:
				if fit > 0 {
					sv.bsTarget = min(fit, slots)
				}
			case sys.Cluster.RunningVMs() >= sv.bsTarget:
				// The stage's VMs restored; grow by one node's worth, or
				// declare the boot complete once the budget is saturated.
				if sv.bsTarget >= fit {
					m.setMode(sys, now, ModeNormal,
						fmt.Sprintf("blackstart complete at %d VMs", sv.bsTarget))
				} else {
					sv.bsTarget = min(sv.bsTarget+slots, fit)
				}
			}
		}
	}

	m.surviveGenset(sys, now, demandW, gapWh, tdep)
}

// surviveGenset is the last-resort dispatch of the secondary feed: started
// only when shedding has not closed the forecast gap and depletion is near
// enough that waiting longer would let the start delay overrun it; stopped
// the moment there is nothing left for it to carry.
func (m *Manager) surviveGenset(sys *sim.System, now time.Duration, demandW, gapWh float64, tdep time.Duration) {
	gen := sys.Secondary
	if gen == nil {
		return
	}
	sv := m.sv
	minLoad := gen.Params().MinLoadFrac * float64(gen.Params().Rated)
	lead := gen.Params().StartDelay + gensetLead

	// The bus is quiet once the cluster draws nothing — checkpoints in
	// flight keep drawing until their images are safe, and the generator
	// must carry them through window close or the Blackout edge rather
	// than abandon them to a collapsed buffer.
	quiet := sys.Cluster.Power() == 0
	// minService is one fully-occupied node: the smallest serving posture
	// worth burning fuel for.
	prof := &sys.Config().ServerProfile
	minService := float64(prof.Draw(prof.VMSlots, sys.Sink.Spec().Util, 1))

	switch {
	case sv.mode == ModeNormal || ((sv.mode == ModeBlackout || !sys.InWindow(now) || !sys.Sink.HasWork(now)) && quiet):
		// Normal: renewables carry the plant. Blackout/idle: there is no
		// load bus to feed — the generator cannot charge the battery
		// directly.
		if gen.Running() {
			gen.Stop()
			sys.Log.Addf(now, logbook.Power, "genset", "stop: %s", sv.mode)
		}
	case gen.Running() && sv.mode <= ModeConservative && quiet &&
		float64(m.dimmedSupply(sys, now)) >= 1.3*minService:
		// The bridge is no longer needed: the rung recovered and dimmed
		// renewables alone fund minimal service with margin. The 1.3 factor
		// keeps the stop/start pair from chattering on the solar boundary.
		gen.Stop()
		sys.Log.Addf(now, logbook.Power, "genset", "stop: renewables recovered (%s)", sv.mode)
	case !gen.Running():
		// Dispatch window: the gap is real, depletion is close enough that
		// output must start ramping now to arrive in time, and the deficit
		// is worth the min-load floor it will burn.
		critical := tdep <= lead+outlookHorizon/4
		var nextSupply float64
		if m.fc != nil {
			nextSupply = float64(m.fc.ConservativePredict(now+lead, 1))
		} else {
			nextSupply = 0.75 * float64(sys.SolarNow())
		}
		deficitW := demandW - nextSupply
		// bridge: the Survival rung has gone dark with work still in the
		// window because renewables cannot fund even one node — the
		// last-resort feed carries minimal service (Fig 7 "S") instead of
		// letting the day's work drop.
		bridge := sv.mode == ModeSurvival && sys.InWindow(now) && sys.Sink.HasWork(now) &&
			quiet && nextSupply < minService
		if (gapWh > 0 && critical && deficitW > 0.25*minLoad) || bridge {
			gen.Start()
			sys.Log.Addf(now, logbook.Emergency, "genset",
				"start (%s): depletion in %v, start delay %v, gap %.0f Wh",
				gen.Params().Kind, tdep, gen.Params().StartDelay, gapWh)
		}
	}
}
