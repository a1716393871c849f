// Package blink implements a Blink-style power manager (Sharma et al.,
// ASPLOS 2011 — reference [88] of the paper): servers track the intermittent
// power budget directly by fast duty-cycle modulation, with the battery as a
// small unified ride-through buffer.
//
// The paper positions Blink as prior art that "mainly focuses on internet
// workloads and lacks the ability to optimize energy flow efficiency" —
// this implementation exists to make that comparison concrete: Blink keeps
// the whole cluster powered and blinks it against the supply, which wastes
// the idle-power floor under weak budgets and ignores battery health
// entirely.
package blink

import (
	"time"

	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/units"
)

// Config tunes the manager.
type Config struct {
	// Period is the control interval. Blink's defining feature is a fast
	// loop (its namesake blinking interval).
	Period time.Duration
	// MinDuty bounds the blinking duty cycle.
	MinDuty float64
}

// DefaultConfig matches the published system's behaviour at our control
// granularity.
func DefaultConfig() Config {
	return Config{Period: 10 * time.Second, MinDuty: 0.1}
}

// Manager blinks the full cluster against the instantaneous budget.
type Manager struct {
	cfg     Config
	started bool
	duty    float64

	seenBrownouts int
	holdDownUntil time.Duration
	lastNow       time.Duration

	modes []relay.Mode // the pass's relay command, reused
}

var _ sim.Manager = (*Manager)(nil)

// New returns a Blink-style manager.
func New(cfg Config) *Manager { return &Manager{cfg: cfg, duty: 1} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "blink" }

// Period implements sim.Manager.
func (m *Manager) Period() time.Duration { return m.cfg.Period }

// estFullPower is the cluster draw at full width and the given duty.
func estFullPower(sys *sim.System, duty float64) units.Watt {
	prof := sys.Config().ServerProfile
	span := float64(prof.PeakPower-prof.IdlePower) * sys.Sink.Spec().Util * duty
	perNode := float64(prof.IdlePower) + span
	return units.Watt(perNode * float64(sys.Config().ServerCount))
}

// Control implements sim.Manager.
func (m *Manager) Control(sys *sim.System, now time.Duration) {
	m.started = true
	if now < m.lastNow {
		m.holdDownUntil = 0
	}
	m.lastNow = now
	if b := sys.Brownouts(); b < m.seenBrownouts {
		m.seenBrownouts = b
	} else if b > m.seenBrownouts {
		m.seenBrownouts = b
		m.holdDownUntil = now + 10*time.Minute
	}

	maxVMs := sys.Config().ServerProfile.VMSlots * sys.Config().ServerCount
	serving := sys.InWindow(now) && sys.Sink.HasWork(now) && now >= m.holdDownUntil

	if !serving {
		if sys.Cluster.TargetVMs() != 0 {
			sys.Cluster.Shutdown()
		}
	} else {
		if sys.Cluster.TargetVMs() != maxVMs {
			sys.Cluster.SetTargetVMs(maxVMs)
		}
		// Blink: modulate the whole cluster's duty so demand tracks the
		// budget. The idle floor cannot be blinked away — exactly the
		// weakness the paper calls out.
		budget := sys.SolarNow()
		duty := 1.0
		for d := 1.0; d >= m.cfg.MinDuty; d -= 0.05 {
			duty = d
			if estFullPower(sys, d) <= budget {
				break
			}
		}
		if duty != m.duty {
			m.duty = duty
			sys.Cluster.SetDuty(duty)
		}
	}

	// Unified ride-through buffer: all units discharge under deficit,
	// otherwise all charge. No health management.
	mode := relay.Charging
	if sys.Cluster.Power() > sys.SolarNow() {
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
