// Package baseline implements the comparison power manager of §6.4: the
// approach of state-of-the-art grid-connected green data centers (Parasol/
// GreenSwitch [37], Oasis [38]) transplanted onto a standalone in-situ
// system.
//
// The baseline shaves peak power and tracks variable renewable generation,
// but — as the paper emphasises — it can neither reconfigure its energy
// buffer nor adapt its nodes to the off-grid supply:
//
//   - the battery array is a unified buffer: all units charge together or
//     discharge together, and when the pack voltage trips the protection
//     threshold the whole buffer disconnects (Fig 5's "Batteries Switched
//     Out") until it has recharged to the reconnect level;
//   - load allocation tracks the instantaneous solar budget with a fixed
//     battery allowance; there is no discharge-current capping, no duty
//     scaling, and no wear balancing.
package baseline

import (
	"time"

	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/units"
	"insure/internal/workload"
)

// Config tunes the baseline.
type Config struct {
	// Period is the control interval (same as InSURE's for fairness).
	Period time.Duration
	// BatteryAllowance is the fixed battery power the planner assumes is
	// always available for peak shaving.
	BatteryAllowance units.Watt
	// ReconnectSoC is the level the pack must recharge to after a
	// protection trip before it reconnects (90%, like InSURE's target).
	ReconnectSoC float64
}

// DefaultConfig matches the paper's baseline description.
func DefaultConfig() Config {
	return Config{
		Period:           30 * time.Second,
		BatteryAllowance: 600,
		ReconnectSoC:     0.45,
	}
}

// Manager is the unified-buffer baseline.
type Manager struct {
	cfg Config

	started  bool
	lockout  bool // buffer disconnected after a protection trip
	targetVM int

	seenBrownouts int
	holdDownUntil time.Duration
	lastNow       time.Duration

	modes []relay.Mode // the pass's relay command, reused
}

var _ sim.Manager = (*Manager)(nil)

// New returns a baseline manager.
func New(cfg Config) *Manager { return &Manager{cfg: cfg} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "baseline" }

// Period implements sim.Manager.
func (m *Manager) Period() time.Duration { return m.cfg.Period }

// InLockout reports whether the unified buffer is disconnected.
func (m *Manager) InLockout() bool { return m.lockout }

// packSoC estimates the unified pack's state of charge from the mean
// transduced voltage.
func packSoC(sys *sim.System) float64 {
	p := sys.Config().BatteryParams
	var sum float64
	n := sys.Bank.Size()
	for i := 0; i < n; i++ {
		v, cur := sys.UnitReading(i)
		ocv := float64(v) + float64(cur)*p.InternalOhm
		sum += units.Clamp((ocv-float64(p.OCVEmpty))/float64(p.OCVFull-p.OCVEmpty), 0, 1)
	}
	return sum / float64(n)
}

// minPackVolt is the weakest unit's transduced terminal voltage: the
// protection circuit trips on the weakest series element.
func minPackVolt(sys *sim.System) units.Volt {
	min := units.Volt(99)
	for i := 0; i < sys.Bank.Size(); i++ {
		v, _ := sys.UnitReading(i)
		if v < min {
			min = v
		}
	}
	return min
}

// estPower predicts cluster draw for n VMs at full duty (the baseline
// never throttles frequency).
func estPower(sys *sim.System, n int) units.Watt {
	prof := sys.Config().ServerProfile
	if n <= 0 {
		return 0
	}
	span := float64(prof.PeakPower - prof.IdlePower)
	util := sys.Sink.Spec().Util
	full := n / prof.VMSlots
	rem := n % prof.VMSlots
	perNode := float64(prof.IdlePower) + span*util
	p := float64(full) * perNode
	if rem > 0 {
		p += float64(prof.IdlePower) + span*util*float64(rem)/float64(prof.VMSlots)
	}
	return units.Watt(p)
}

// Control implements sim.Manager.
func (m *Manager) Control(sys *sim.System, now time.Duration) {
	m.started = true

	// Day rollover (multi-day campaigns re-enter at a smaller
	// time-of-day): drop stale clock anchors and adopt the fresh plant's
	// counters.
	if now < m.lastNow {
		m.holdDownUntil = 0
		m.targetVM = 0
	}
	m.lastNow = now

	// Resync after a brownout shut the cluster down mid-period, with the
	// same restart hold-down InSURE uses.
	if b := sys.Brownouts(); b < m.seenBrownouts {
		m.seenBrownouts = b
	} else if b > m.seenBrownouts {
		m.seenBrownouts = b
		m.targetVM = 0
		m.holdDownUntil = now + 10*time.Minute
	}

	// Protection trip: the whole unified buffer disconnects at the cutoff
	// voltage and stays out until recharged (§2.3, Fig 5).
	cutoff := sys.Config().BatteryParams.CutoffVolt
	if !m.lockout && minPackVolt(sys) < cutoff {
		m.lockout = true
	}
	if m.lockout && packSoC(sys) >= m.cfg.ReconnectSoC {
		m.lockout = false
	}

	// Load plan: greedy solar tracking with the fixed battery allowance
	// (§6.4: the baseline cannot adapt its nodes to the off-grid supply).
	// A protection trip takes the whole system down (§2.3: "InS has to be
	// shut down and its solar energy utilization drops to zero") and every
	// watt of solar goes to recharging the pack.
	budget := sys.SolarNow() + m.cfg.BatteryAllowance
	target := 0
	if sys.InWindow(now) && sys.Sink.HasWork(now) && now >= m.holdDownUntil && !m.lockout {
		maxVMs := sys.Config().ServerProfile.VMSlots * sys.Config().ServerCount
		for n := maxVMs; n >= 1; n-- {
			if estPower(sys, n) <= budget {
				target = n
				break
			}
		}
	}
	// Batch loads never shrink a started allocation (shared physical
	// constraint), but the baseline greedily grows whenever the
	// instantaneous budget allows — it has no notion of Table 2's
	// efficiency sweet spot, so it rides the solar curve up to full width
	// and pays for it from the buffer in the afternoon.
	if sys.Sink.Spec().Kind == workload.Batch && m.targetVM > 0 && target > 0 && target < m.targetVM {
		target = m.targetVM
	}
	if target != m.targetVM {
		m.targetVM = target
		if target == 0 {
			sys.Cluster.Shutdown()
		} else {
			sys.Cluster.SetTargetVMs(target)
		}
	}

	// Unified buffer actuation: all units share one electrical role. A
	// protection lockout keeps the pack on the charge bus only; otherwise a
	// deficit discharges the whole pack and a surplus batch-charges it.
	mode := relay.Charging
	if !m.lockout && sys.Cluster.Power() > sys.SolarNow() {
		mode = relay.Discharging
	}
	if len(m.modes) != sys.Bank.Size() {
		m.modes = make([]relay.Mode, sys.Bank.Size())
	}
	for i := range m.modes {
		m.modes[i] = mode
	}
	sys.SetUnitModes(m.modes)
	sys.PLC.ScanNow()
}
