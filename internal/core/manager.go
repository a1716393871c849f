// Package core implements the paper's primary contribution: the InSURE
// supply-load cooperative power manager (§3), combining
//
//   - a reconfigurable distributed energy buffer operated through the relay
//     fabric in the four modes of Fig 7 (Offline / Charging / Standby /
//     Discharging) with the transitions of Fig 8;
//   - spatial power management (SPM, §3.3): Eq-1 discharge-budget screening
//     in the Offline mode (Fig 9) and budget-adaptive batch charging in the
//     Charging mode (Fig 10);
//   - temporal power management (TPM, §3.4): discharge-current capping that
//     lets batteries exercise their recovery effect, with DVFS duty cycles
//     for batch jobs, VM-count adjustment for stream jobs, and
//     checkpoint-shutdown when the state of charge runs out (Fig 11).
package core

import (
	"fmt"
	"math"
	"time"

	"insure/internal/forecast"
	"insure/internal/logbook"
	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/units"
	"insure/internal/workload"
)

// Group is the manager's operating-mode classification of one battery unit
// (Fig 8). Group is control-plane state; the electrical state follows from
// the relay mode the group implies.
type Group int

const (
	GroupOffline Group = iota
	GroupCharging
	GroupStandby
	GroupDischarging
)

func (g Group) String() string {
	switch g {
	case GroupOffline:
		return "offline"
	case GroupCharging:
		return "charging"
	case GroupStandby:
		return "standby"
	case GroupDischarging:
		return "discharging"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// The prototype's fixed control tuning. Each is one value in every run the
// paper reports, so it is a constant rather than a Config field.
const (
	// controlPeriod is the fine-grained TPM control interval.
	controlPeriod = 30 * time.Second
	// targetSoC is the charge-to level before a unit goes online (90%).
	targetSoC = 0.90
	// minSoC is the discharge floor; below it a unit goes Offline.
	minSoC = 0.30
	// emergencySoC triggers cluster checkpoint-shutdown when the online
	// buffer falls this low.
	emergencySoC = 0.18
	// desiredLifetime is T_L in Eq-1.
	desiredLifetime = 4 * 365 * 24 * time.Hour
	// dutyStep is the DVFS actuator's step for batch loads (Config.MinDuty
	// is its floor).
	dutyStep = 0.1
	// boostFactor lets SPM temporarily exceed the Eq-1 threshold for
	// on-demand acceleration (§3.3, last paragraph).
	boostFactor = 1.15
	// forecastCapacity is the installed clear-sky peak the estimator
	// normalises against (the prototype's 1.6 kW × 0.95 derate).
	forecastCapacity units.Watt = 1520
)

// Config tunes the manager.
type Config struct {
	// CoarsePeriod is the SPM screening interval (Fig 9's "coarse-grained
	// control interval T").
	CoarsePeriod time.Duration

	// UnitDischargeCap is TPM's per-unit discharge current cap. Keeping
	// per-unit current at or below this leaves room for the recovery
	// effect and avoids the rate-capacity collapse.
	UnitDischargeCap units.Amp

	// MinDuty is the floor of the DVFS actuator for batch loads.
	MinDuty float64

	// UseForecast enables lookahead planning (the paper's future-work
	// direction): instead of a fixed 25% cloud margin, the manager plans
	// against a clear-sky-ratio forecast discounted by the sky's observed
	// variability.
	UseForecast bool

	// Survival enables the energy-emergency survivability ladder
	// (survival.go): degraded operating modes, orderly pre-brownout
	// shutdown, last-resort generator dispatch, and staged blackstart.
	Survival SurvivalConfig
}

// DefaultConfig returns the prototype's tuning.
func DefaultConfig() Config {
	return Config{
		CoarsePeriod:     15 * time.Minute,
		UnitDischargeCap: 4, // ≈0.11 C on the 35 Ah units: recovery-friendly sustained draw
		MinDuty:          0.4,
	}
}

// Manager is the InSURE energy manager.
type Manager struct {
	cfg Config

	groups []Group
	// ahTable is the battery discharge history table (Fig 9), integrated
	// from the transduced current readings the PLC publishes — the manager
	// never peeks at ground-truth battery state.
	ahTable []float64
	// unused is D_U in Eq-1: discharge budget left over from the previous
	// coarse interval.
	unused float64

	elapsed    time.Duration
	lastCoarse time.Duration
	started    bool

	duty     float64
	targetVM int
	// activeCharge is the subset of the charging group selected for this
	// period's batch charge (Fig 10's C_N).
	activeCharge []int
	// chargeStall counts consecutive periods a charging-group unit sat
	// idle with no budget to charge it; a stalled unit with usable charge
	// goes online anyway rather than starving the servers.
	chargeStall []int
	// commissioned marks units that completed their Region-A initial
	// charge (or were stall-promoted); serving starts once two units are
	// commissioned. Retiring to Offline de-commissions a unit.
	commissioned []bool

	// bestBatchVMs is the energy-efficiency sweet spot for batch loads
	// (Table 2's finding that 4 VMs beat 8 for seismic).
	bestBatchVMs int

	// fc is the optional lookahead estimator (nil unless UseForecast or
	// the survivability layer, which needs the horizon, is enabled).
	fc *forecast.Estimator
	// sv is the optional survivability mode machine (nil unless enabled).
	sv *survival
	// lastModes remembers applied relay modes for transition logging.
	lastModes []relay.Mode

	// brownout recovery
	seenBrownouts int
	holdDownUntil time.Duration

	// counters for introspection/tests
	screenings  int
	capEvents   int
	boostEvents int
	// recovery accounting (persist.go): recoveries counts crash-restarts
	// this control state has survived, reconciliations counts restored
	// relay intents that disagreed with the live plant and were re-driven.
	recoveries      int
	reconciliations int

	// watch is the fault-detection state (faultwatch.go): quarantine flags,
	// per-unit screen counters, and the quarantine event log.
	watch faultWatch
	// soc memoizes MeanSoC; fgen counts ForecastGen's own terms
	// (outlook.go).
	soc  socMemo
	fgen forecastGen

	// tel, when set by AttachTelemetry, mirrors the counters above into the
	// live registry (telemetry.go).
	tel *managerTelemetry

	// modeHook, when set by SetModeHook, observes every survivability
	// ladder transition — the fleet coordinator's migrate-before-shed
	// signal. Hooks are observers: they must not call back into the
	// manager, and they are not journaled state (a recovered controller
	// needs its hook re-installed by whoever owns it).
	modeHook func(now time.Duration, from, to OpMode)

	// Reusable scratch for the control pass. Control runs 1,380 times per
	// simulated day across every experiment, so its group queries and
	// membership sets must not allocate (see DESIGN.md's performance notes).
	scratchA []int
	scratchB []int
	memberA  []bool
	memberB  []bool
}

var _ sim.Manager = (*Manager)(nil)

// New returns a manager for a system with n battery units.
func New(cfg Config, n int) *Manager {
	m := &Manager{
		cfg:          cfg,
		groups:       make([]Group, n),
		ahTable:      make([]float64, n),
		chargeStall:  make([]int, n),
		commissioned: make([]bool, n),
		duty:         1,
		watch:        newFaultWatch(n),
	}
	if cfg.UseForecast || cfg.Survival.Enabled {
		m.fc = forecast.NewEstimator(forecastCapacity)
	}
	if cfg.Survival.Enabled {
		m.sv = &survival{}
	}
	return m
}

// Name implements sim.Manager.
func (m *Manager) Name() string { return "InSURE" }

// Period implements sim.Manager.
func (m *Manager) Period() time.Duration { return controlPeriod }

// Groups returns a copy of the per-unit group assignments.
func (m *Manager) Groups() []Group { return append([]Group(nil), m.groups...) }

// Screenings counts SPM coarse-interval screenings.
func (m *Manager) Screenings() int { return m.screenings }

// pickBestBatchVMs sizes batch allocations at the paper's Table 2 sweet
// spot: the largest VM count whose energy efficiency (GB per joule) stays
// within 30% of the best achievable. Pure per-joule optimisation would
// always pick one node; the threshold keeps throughput while avoiding the
// steep efficiency cliff of the biggest configurations (8 VMs in Table 2).
func pickBestBatchVMs(sys *sim.System) int {
	spec := sys.Sink.Spec()
	prof := &sys.Config().ServerProfile
	slots := sys.Cluster.TotalVMSlots()
	ratios := make([]float64, slots+1)
	bestRatio := 0.0
	for n := 1; n <= slots; n++ {
		p := float64(prof.Draw(n, spec.Util, 1))
		if p <= 0 {
			continue
		}
		ratios[n] = spec.Rate(n, 1) / p
		if ratios[n] > bestRatio {
			bestRatio = ratios[n]
		}
	}
	best := 1
	for n := 1; n <= slots; n++ {
		if ratios[n] >= 0.7*bestRatio {
			best = n
		}
	}
	return best
}

// dimmedSupply is the renewable power the manager is willing to count on
// for the next period. Without a forecaster it applies the fixed 25% cloud
// margin; with one it uses the variability-discounted clear-sky forecast,
// which is less conservative under a stable sky and more under a choppy
// one.
func (m *Manager) dimmedSupply(sys *sim.System, now time.Duration) units.Watt {
	solar := sys.SolarNow()
	if m.fc == nil {
		return units.Watt(0.75 * float64(solar))
	}
	p := m.fc.ConservativePredict(now+controlPeriod, 1.0)
	if p > solar {
		p = solar
	}
	return p
}

// perUnitDischargePower is the power one unit may contribute under the TPM
// current cap.
func (m *Manager) perUnitDischargePower(sys *sim.System) units.Watt {
	nominal := sys.Config().BatteryParams.NominalVolt
	return units.Power(m.cfg.UnitDischargeCap, nominal)
}

// Control implements sim.Manager: one full SPM+TPM pass.
func (m *Manager) Control(sys *sim.System, now time.Duration) {
	if !m.started {
		m.started = true
		m.lastCoarse = now
	}
	// Day rollover (multi-day campaigns re-enter at a smaller time-of-day):
	// reset the clock anchors so screening and hold-downs keep working,
	// and forget the previous day's load allocation — the fresh plant's
	// cluster starts dark.
	if now < m.lastCoarse {
		m.lastCoarse = now
		m.holdDownUntil = 0
		m.targetVM = 0
		m.lastModes = nil
		if m.sv != nil {
			// The mode itself persists across days — a multi-day storm keeps
			// its rung — but the dwell clock must follow the new day's time.
			m.sv.modeSince = now
		}
	}
	if m.bestBatchVMs == 0 {
		m.bestBatchVMs = pickBestBatchVMs(sys)
		if sys.Sink.Spec().Kind != workload.Batch {
			m.bestBatchVMs = sys.Cluster.TotalVMSlots()
		}
	}
	m.elapsed += controlPeriod

	// Resync after a brownout: the plant shut the cluster down behind our
	// back; hold restart down so we do not thrash against a collapsed bus.
	// A counter that went backwards means a fresh plant (next campaign
	// day); adopt it.
	if b := sys.Brownouts(); b < m.seenBrownouts {
		m.seenBrownouts = b
	} else if b > m.seenBrownouts {
		m.seenBrownouts = b
		m.targetVM = 0
		m.holdDownUntil = now + 10*time.Minute
	}

	m.updateHistoryTable(sys)
	m.detectFaults(sys, now)
	if m.fc != nil {
		m.fc.Observe(now, sys.SolarNow(), controlPeriod)
	}

	// SPM Offline-mode screening at coarse boundaries (Fig 9).
	if now-m.lastCoarse >= m.cfg.CoarsePeriod {
		m.lastCoarse = now
		m.screenOffline(sys)
	}

	m.retireDrainedUnits(sys)
	m.promoteChargedUnits(sys)
	if m.sv != nil {
		// The survivability ladder owns emergency posture and generator
		// dispatch; the simple reactive secondary policy stands down.
		m.surviveEvaluate(sys, now)
	} else {
		m.manageSecondary(sys, now)
	}
	m.planLoad(sys, now)
	m.assignDischargeSet(sys, now)
	m.assignChargeSet(sys)
	m.temporalCap(sys)
	m.applyModes(sys, now)
}

// manageSecondary runs the optional backup generator (Fig 6/Fig 7 "S"):
// start it when neither solar nor the buffer can carry even the minimal
// service level, stop it once renewables recover. Renewable energy stays
// the primary source; the generator only bridges droughts.
func (m *Manager) manageSecondary(sys *sim.System, now time.Duration) {
	gen := sys.Secondary
	if gen == nil {
		return
	}
	prof := &sys.Config().ServerProfile
	minService := prof.Draw(prof.VMSlots, sys.Sink.Spec().Util, 1)
	renewable := sys.SolarNow() + m.dischargeablePower(sys)
	switch {
	case !sys.InWindow(now) || !sys.Sink.HasWork(now):
		gen.Stop()
	case renewable < minService && !gen.Running():
		gen.Start()
		sys.Log.Addf(now, logbook.Power, "genset",
			"start (%s): renewable %.0f W below minimum service %.0f W",
			gen.Params().Kind, float64(renewable), float64(minService))
	case gen.Running() && sys.SolarNow() > minService*2 && m.dischargeablePower(sys) > minService:
		gen.Stop()
		sys.Log.Addf(now, logbook.Power, "genset", "stop: renewables recovered")
	}
}

// updateHistoryTable integrates transduced discharge currents into AhT.
func (m *Manager) updateHistoryTable(sys *sim.System) {
	hours := controlPeriod.Hours()
	for i := range m.groups {
		_, cur := sys.UnitReading(i)
		if cur > 0 {
			m.ahTable[i] += float64(cur) * hours
		}
	}
}

// screenOffline implements Fig 9: units whose aggregated discharge is under
// the Eq-1 threshold move from Offline into the Charging group.
func (m *Manager) screenOffline(sys *sim.System) {
	m.screenings++
	if m.tel != nil {
		m.tel.screenings.Inc()
	}
	p := sys.Config().BatteryParams
	// Eq-1: δD = D_U + D_L · T / T_L, with T the elapsed operating time.
	perUnitBudget := float64(p.LifetimeAh) * (m.elapsed.Hours() / desiredLifetime.Hours())
	threshold := m.unused + perUnitBudget

	var pool, eligible int
	for i, g := range m.groups {
		if g != GroupOffline || m.watch.quarantined[i] {
			continue // a quarantined unit never re-enters rotation
		}
		pool++
		if m.ahTable[i] < threshold {
			m.groups[i] = GroupCharging
			eligible++
		}
	}
	// On-demand acceleration (§3.3): if screening admitted nothing but
	// offline capacity exists, relax the threshold once.
	if pool > 0 && eligible == 0 {
		boosted := threshold * boostFactor
		for i, g := range m.groups {
			if g == GroupOffline && !m.watch.quarantined[i] && m.ahTable[i] < boosted {
				m.groups[i] = GroupCharging
				m.boostEvents++
				if m.tel != nil {
					m.tel.boostEvents.Inc()
				}
			}
		}
	}
	// Roll the unused budget forward: whatever headroom the most-worn
	// online unit still has becomes D_U.
	m.unused = perUnitBudget
}

// retireDrainedUnits moves exhausted discharging units Offline (Fig 8
// transition 4).
func (m *Manager) retireDrainedUnits(sys *sim.System) {
	cutoff := sys.Config().BatteryParams.CutoffVolt
	for i, g := range m.groups {
		if g != GroupDischarging && g != GroupStandby {
			continue
		}
		v, _ := sys.UnitReading(i)
		if sys.EstimatedSoC(i) < minSoC || v < cutoff {
			m.groups[i] = GroupOffline
			m.commissioned[i] = false
		}
	}
}

// promoteChargedUnits moves fully-charged units to Standby (Fig 8
// transitions 2/5). Units whose charging has stalled for ten minutes with
// no green budget go online anyway once they hold usable charge — on a
// rainy day waiting for 90% would starve the servers forever.
func (m *Manager) promoteChargedUnits(sys *sim.System) {
	active := m.memberSet(&m.memberA)
	for _, i := range m.activeCharge {
		active[i] = true
	}
	stallLimit := int((45 * time.Minute) / controlPeriod)
	for i, g := range m.groups {
		if g != GroupCharging {
			m.chargeStall[i] = 0
			continue
		}
		soc := sys.EstimatedSoC(i)
		if soc >= targetSoC {
			m.groups[i] = GroupStandby
			m.commissioned[i] = true
			m.chargeStall[i] = 0
			continue
		}
		if active[i] || sys.SolarNow() <= 0 {
			// A unit is only "stalled" when daylight budget exists and it
			// still is not being charged; waiting out the night is normal.
			m.chargeStall[i] = 0
			continue
		}
		m.chargeStall[i]++
		if m.chargeStall[i] >= stallLimit && soc >= minSoC+0.1 {
			m.groups[i] = GroupStandby
			m.commissioned[i] = true
			m.chargeStall[i] = 0
		}
	}
}

// planLoad sizes the cluster to the power budget: solar now plus what the
// online buffer may deliver under the current cap.
func (m *Manager) planLoad(sys *sim.System, now time.Duration) {
	spec := sys.Sink.Spec()
	prof := &sys.Config().ServerProfile
	reserve := m.dischargeablePower(sys)
	if spec.Kind != workload.Batch {
		// For continuous loads the buffer is ride-through headroom, not
		// base-load supply: funding extra VMs from the battery buys very
		// little throughput per Ah at the marginal VM's efficiency (§3.4:
		// high-current discharge delivers little energy).
		reserve = units.Watt(0.7 * float64(reserve))
	}
	if m.sv != nil && m.sv.mode >= ModeSurvival {
		// In Survival and below the buffer's remaining energy is earmarked
		// for the checkpoint window, not for revenue work: only present
		// renewables (and the genset) fund VMs, so the bank cannot be
		// drained past the point where an orderly shutdown is affordable.
		reserve = 0
	}
	supply := sys.SolarNow()
	if m.sv != nil {
		// The survivability layer plans against the dimmed supply, not the
		// instantaneous reading: sizing the cluster to a passing bright
		// spell starts a minutes-long restore cycle that the next cloud
		// front dumps onto a buffer being saved for the checkpoint window.
		supply = m.dimmedSupply(sys, now)
	}
	budget := supply + reserve
	if gen := sys.Secondary; gen != nil && gen.Available() {
		budget += units.Watt(0.9 * float64(gen.Params().Rated))
	}

	// Region-A bootstrap (§6.1): before serving, charge a selected subset
	// so the system always operates with online reserve. Serving begins
	// once at least two units have been commissioned (charged to target,
	// or stall-promoted with usable charge) and still hold charge.
	online := 0
	for i := range m.groups {
		if m.commissioned[i] && m.groups[i] != GroupOffline {
			online++
		}
	}
	wantOnline := 2
	if n := len(m.groups); n < wantOnline {
		wantOnline = n
	}
	// Fig 7 Standby flow: abundant green power drives the servers directly
	// even while the buffer is still commissioning.
	solarAlone := supply >= units.Watt(1.3*float64(prof.Draw(2, spec.Util, 1)))
	// A warm generator is online reserve in its own right: when the
	// survivability ladder has dispatched it, serving must not wait for
	// battery commissioning the genset was started to substitute for.
	genReady := m.sv != nil && sys.Secondary != nil && sys.Secondary.Available()
	if !sys.InWindow(now) || !sys.Sink.HasWork(now) || now < m.holdDownUntil ||
		(online < wantOnline && !solarAlone && !genReady) ||
		(m.sv != nil && m.sv.blocksService()) {
		if sys.Cluster.TargetVMs() != 0 {
			sys.Cluster.Shutdown()
		}
		m.targetVM = 0
		if m.sv != nil {
			// Everything the budget could have powered is shed posture.
			m.sv.shedWatts = 0
			if m.sv.mode >= ModeSurvival && sys.InWindow(now) && sys.Sink.HasWork(now) {
				m.sv.shedWatts = float64(prof.Draw(m.budgetFitVMs(sys), spec.Util, m.duty))
			}
			if m.tel != nil {
				m.tel.shedWatts.Set(m.sv.shedWatts)
			}
		}
		return
	}

	maxVMs := sys.Cluster.TotalVMSlots()
	limit := maxVMs
	sizingBudget := budget
	if spec.Kind == workload.Batch {
		limit = m.bestBatchVMs
		// Batch allocations are sticky, so commit only with 15% headroom.
		sizingBudget = units.Watt(float64(budget) / 1.15)
	}
	uncappedLimit := limit
	if m.sv != nil && spec.Kind != workload.Batch {
		// Stream loads shed VM count on every downgrade; batch loads keep
		// their allocation through Conservative (duty cuts first) and are
		// checkpoint-shed below the cap only from Survival on (after the
		// sticky-hold logic, so the hold cannot undo the shed).
		if c := m.sv.vmCap(maxVMs, prof.VMSlots); c < limit {
			limit = c
		}
	}
	target := 0
	for n := limit; n >= 1; n-- {
		if prof.Draw(n, spec.Util, m.duty) <= sizingBudget {
			target = n
			break
		}
	}
	switch {
	case spec.Kind == workload.Batch && m.targetVM > 0 && target > 0:
		// Batch jobs must not shrink VM counts mid-job (§2.3): a running
		// batch keeps its allocation and relies on duty scaling. Growing
		// is allowed between sub-tasks when the budget clearly supports
		// it (the survey batch is divisible into micro-seismic tests),
		// and a checkpoint-shed happens when even minimum-duty power is
		// unsupportable.
		switch {
		case target > m.targetVM:
			if float64(prof.Draw(target, spec.Util, m.duty)) > float64(budget)/1.15 {
				target = m.targetVM
			}
		case prof.Draw(m.targetVM, spec.Util, m.cfg.MinDuty) <= budget:
			target = m.targetVM // hold; TPM duty scaling covers the gap
		}
	case m.targetVM > 0 && target > 0:
		// Stream hysteresis: changing node counts costs a 15-minute
		// checkpoint cycle, so only move when the budget clearly says so.
		if target > m.targetVM && float64(prof.Draw(target, spec.Util, m.duty)) > 0.9*float64(budget) {
			target = m.targetVM
		}
	}
	if m.sv != nil && spec.Kind != workload.Batch && target > m.targetVM && now != m.lastCoarse {
		// Power-state churn guard: every grow decision commits nodes to a
		// minutes-long restore at checkpoint-level draw before any work is
		// done, so under the survivability ladder growth happens only at
		// SPM coarse boundaries. Sheds stay immediate — safety never waits
		// out a timer.
		target = m.targetVM
	}
	if m.sv != nil {
		// Survival posture is a hard ceiling for every workload kind: batch
		// sticky holds and stream hysteresis may never raise the target back
		// above the rung's cap.
		if c := m.sv.vmCap(maxVMs, prof.VMSlots); target > c {
			target = c
		}
		// Checkpointability invariant: never run more nodes than the plant
		// could checkpoint in parallel out of present resources. A target
		// the buffer cannot save on demand is a debt the next brownout
		// collects as lost VM state, so it outranks even batch stickiness.
		if c := m.ckptSupportNodes(sys, now) * prof.VMSlots; target > c {
			target = c
		}
		// shedWatts: what the raw budget supports minus what the posture
		// allows — the survivability layer's live shedding depth.
		unc := target
		for n := uncappedLimit; n > target; n-- {
			if prof.Draw(n, spec.Util, m.duty) <= sizingBudget {
				unc = n
				break
			}
		}
		m.sv.shedWatts = float64(prof.Draw(unc, spec.Util, m.duty)) - float64(prof.Draw(target, spec.Util, m.duty))
		if m.tel != nil {
			m.tel.shedWatts.Set(m.sv.shedWatts)
		}
	}
	if target != m.targetVM {
		sys.Log.Addf(now, logbook.Load, "cluster", "VM target %d -> %d (budget %.0f W)",
			m.targetVM, target, float64(budget))
		m.targetVM = target
		sys.Cluster.SetTargetVMs(target)
	}

	// Proactive duty selection for batch loads (§3.4): pick the highest
	// duty cycle the budget sustains at the held VM count, so the rack
	// slows down instead of over-drawing the buffer. temporalCap remains
	// the reactive safety net on measured current.
	if spec.Kind == workload.Batch && m.targetVM > 0 {
		// Plan duty against the dimmed solar forecast (same cloud margin
		// as the discharge-set sizing), so the rack is already slowed
		// down when the evening sag or a cloud front arrives.
		dutyBudget := m.dimmedSupply(sys, now) + reserve
		duty := m.cfg.MinDuty
		maxDuty := 1.0
		if m.sv != nil {
			maxDuty = m.sv.dutyCap(m.cfg.MinDuty)
		}
		for d := maxDuty; d >= m.cfg.MinDuty-1e-9; d -= dutyStep {
			if prof.Draw(m.targetVM, spec.Util, d) <= dutyBudget {
				duty = d
				break
			}
		}
		if math.Abs(duty-m.duty) > 1e-9 {
			m.duty = duty
			sys.Cluster.SetDuty(duty)
		}
	}
}

// dischargeablePower is the buffer's deliverable power under the cap. Any
// non-offline unit with usable charge counts: the relay fabric can swing a
// charging unit onto the discharge bus within one control period.
func (m *Manager) dischargeablePower(sys *sim.System) units.Watt {
	per := m.perUnitDischargePower(sys)
	var p units.Watt
	for i, g := range m.groups {
		if g != GroupOffline && sys.EstimatedSoC(i) > minSoC+0.05 {
			p += per
		}
	}
	return p
}

// assignDischargeSet connects just enough standby units to cover the
// expected deficit, chosen by lowest discharge history (balancing,
// Fig 14b), and rests surplus discharging units so they recover.
func (m *Manager) assignDischargeSet(sys *sim.System, now time.Duration) {
	// Plan against a dimmed solar forecast: clouds move faster than the
	// control period, so keep enough units connected to ride a dip.
	deficit := float64(sys.Cluster.Power()) - float64(m.dimmedSupply(sys, now))
	per := float64(m.perUnitDischargePower(sys))
	need := 0
	if deficit > 0 && per > 0 {
		need = int(math.Ceil(deficit / per))
	}
	if sys.Cluster.AnyRunning() && need == 0 {
		need = 1 // always one unit of spinning reserve while serving
	}
	avail := m.countIn(GroupDischarging) + m.countIn(GroupStandby)
	if need > avail {
		// Serving the load outranks charging: draft the highest-SoC units
		// out of the charging group.
		charging := m.appendUnitsIn(m.scratchA[:0], GroupCharging)
		m.scratchA = charging
		for a := 0; a < len(charging); a++ {
			for b := a + 1; b < len(charging); b++ {
				if sys.EstimatedSoC(charging[b]) > sys.EstimatedSoC(charging[a]) {
					charging[a], charging[b] = charging[b], charging[a]
				}
			}
		}
		for _, i := range charging {
			if avail >= need {
				break
			}
			if sys.EstimatedSoC(i) > minSoC {
				m.groups[i] = GroupStandby
				avail++
			}
		}
		if need > avail {
			need = avail
		}
	}

	// Currently connected units, most-worn first, disconnect when surplus.
	connected := m.appendUnitsIn(m.scratchA[:0], GroupDischarging)
	m.scratchA = connected
	if len(connected) > need {
		m.sortByAhDesc(connected)
		for _, i := range connected[:len(connected)-need] {
			m.groups[i] = GroupStandby // rest → recovery effect
		}
	} else if len(connected) < need {
		standby := m.appendUnitsIn(m.scratchB[:0], GroupStandby)
		m.scratchB = standby
		m.sortByAhAsc(standby)
		ndis := len(connected)
		for _, i := range standby {
			if ndis >= need {
				break
			}
			m.groups[i] = GroupDischarging
			ndis++
		}
	}
}

// assignChargeSet implements Fig 10: batch size N = P_G/P_PC from the
// present surplus, filled with the lowest-SoC units of the charging group
// (Fig 14a's priority rule). Standby units that have sagged below the
// charge target rejoin the charging group first (the paper's standby units
// receive float charging).
func (m *Manager) assignChargeSet(sys *sim.System) {
	for i, g := range m.groups {
		if g == GroupStandby && sys.EstimatedSoC(i) < targetSoC-0.05 {
			m.groups[i] = GroupCharging
		}
	}
	surplus := float64(sys.SolarNow() - sys.Cluster.Power())
	ppc := float64(sys.Config().BatteryParams.PeakChargePower())
	n := 0
	if surplus > 0 && ppc > 0 {
		n = int(surplus / ppc)
		if n == 0 && surplus > 0.35*ppc {
			n = 1 // trickle of budget still charges one unit
		}
	}
	group := m.appendUnitsIn(m.scratchA[:0], GroupCharging)
	m.scratchA = group
	if n > len(group) {
		n = len(group)
	}
	inGroup := m.memberSet(&m.memberA)
	for _, i := range group {
		inGroup[i] = true
	}
	// The batch is sticky (Fig 10: charge the selected cabinets until they
	// reach 90%): keep current members that are still charging, then top
	// up with the lowest-SoC candidates.
	kept := m.activeCharge[:0]
	for _, i := range m.activeCharge {
		if inGroup[i] && len(kept) < n {
			kept = append(kept, i)
		}
	}
	m.activeCharge = kept
	if len(m.activeCharge) < n {
		active := m.memberSet(&m.memberB)
		for _, i := range m.activeCharge {
			active[i] = true
		}
		candidates := m.scratchB[:0]
		for _, i := range group {
			if !active[i] {
				candidates = append(candidates, i)
			}
		}
		m.scratchB = candidates
		for a := 0; a < len(candidates); a++ {
			for b := a + 1; b < len(candidates); b++ {
				if sys.EstimatedSoC(candidates[b]) < sys.EstimatedSoC(candidates[a]) {
					candidates[a], candidates[b] = candidates[b], candidates[a]
				}
			}
		}
		need := n - len(m.activeCharge)
		if need > len(candidates) {
			need = len(candidates)
		}
		m.activeCharge = append(m.activeCharge, candidates[:need]...)
	}
}

// temporalCap implements Fig 11: if the measured discharge current exceeds
// the cap, shed load (duty for batch, VMs for stream); if the buffer hits
// the emergency floor, checkpoint and shut down.
func (m *Manager) temporalCap(sys *sim.System) {
	spec := sys.Sink.Spec()
	var id float64
	online := 0
	var socSum float64
	for i, g := range m.groups {
		if g != GroupDischarging {
			continue
		}
		_, cur := sys.UnitReading(i)
		if cur > 0 {
			id += float64(cur)
		}
		online++
		socSum += sys.EstimatedSoC(i)
	}
	capTotal := float64(m.cfg.UnitDischargeCap) * float64(max(online, 1))

	switch {
	case id > capTotal:
		m.capEvents++
		if m.tel != nil {
			m.tel.capEvents.Inc()
		}
		if spec.Kind == workload.Batch {
			if m.duty > m.cfg.MinDuty {
				m.duty = math.Max(m.cfg.MinDuty, m.duty-dutyStep)
				sys.Cluster.SetDuty(m.duty)
			} else if m.targetVM > 1 {
				// Duty exhausted: shed a VM as last resort.
				m.targetVM--
				sys.Cluster.SetTargetVMs(m.targetVM)
			}
		} else if m.targetVM > 1 {
			m.targetVM--
			sys.Cluster.SetTargetVMs(m.targetVM)
		}
	case id < 0.5*capTotal && m.duty < 1 && spec.Kind == workload.Batch:
		m.duty = math.Min(1, m.duty+dutyStep)
		sys.Cluster.SetDuty(m.duty)
	}

	// With the survivability ladder attached, emergency shutdown belongs to
	// the mode machine (it fires earlier, through the orderly Survival →
	// Blackout edge); the reactive floor here would fight its journal state.
	if m.sv == nil && online > 0 && socSum/float64(online) < emergencySoC &&
		m.dischargeablePower(sys) < sys.Cluster.Power()-sys.SolarNow() {
		sys.Cluster.Shutdown()
		m.targetVM = 0
	}
}

// applyModes logs mode transitions to the deployment logbook, then writes
// every unit's relay command to the PLC coils in one block.
func (m *Manager) applyModes(sys *sim.System, now time.Duration) {
	chargingNow := m.memberSet(&m.memberA)
	for _, i := range m.activeCharge {
		chargingNow[i] = true
	}
	if m.lastModes == nil {
		m.lastModes = make([]relay.Mode, len(m.groups))
	}
	for i, g := range m.groups {
		mode := relay.Open
		switch {
		case g == GroupDischarging:
			mode = relay.Discharging
		case g == GroupCharging && chargingNow[i]:
			mode = relay.Charging
		}
		if mode != m.lastModes[i] {
			sys.Log.Addf(now, logbook.Power, fmt.Sprintf("battery#%d", i+1),
				"%s -> %s (group %s)", m.lastModes[i], mode, g)
			m.lastModes[i] = mode
		}
	}
	sys.SetUnitModes(m.lastModes)
	sys.PLC.ScanNow()
}

// appendUnitsIn appends the units in group g to dst (pass a reusable
// buffer's [:0]).
func (m *Manager) appendUnitsIn(dst []int, g Group) []int {
	for i, gi := range m.groups {
		if gi == g {
			dst = append(dst, i)
		}
	}
	return dst
}

// countIn counts units in group g without materialising the index list.
func (m *Manager) countIn(g Group) int {
	n := 0
	for _, gi := range m.groups {
		if gi == g {
			n++
		}
	}
	return n
}

// memberSet returns *buf sized to the unit count with every entry false —
// a reusable replacement for the per-call map[int]bool membership sets.
func (m *Manager) memberSet(buf *[]bool) []bool {
	if cap(*buf) < len(m.groups) {
		*buf = make([]bool, len(m.groups))
	}
	s := (*buf)[:len(m.groups)]
	for i := range s {
		s[i] = false
	}
	return s
}

func (m *Manager) sortByAhAsc(idx []int) {
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			if m.ahTable[idx[b]] < m.ahTable[idx[a]] {
				idx[a], idx[b] = idx[b], idx[a]
			}
		}
	}
}

func (m *Manager) sortByAhDesc(idx []int) {
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			if m.ahTable[idx[b]] > m.ahTable[idx[a]] {
				idx[a], idx[b] = idx[b], idx[a]
			}
		}
	}
}
