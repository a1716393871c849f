// Package baseline implements the two unified-buffer power managers InSURE
// is compared against.
//
// Manager is the comparison power manager of §6.4: the approach of
// state-of-the-art grid-connected green data centers (Parasol/GreenSwitch
// [37], Oasis [38]) transplanted onto a standalone in-situ system. It
// shaves peak power and tracks variable renewable generation, but — as the
// paper emphasises — it can neither reconfigure its energy buffer nor adapt
// its nodes to the off-grid supply:
//
//   - the battery array is a unified buffer: all units charge together or
//     discharge together, and when the pack voltage trips the protection
//     threshold the whole buffer disconnects (Fig 5's "Batteries Switched
//     Out") until it has recharged to the reconnect level;
//   - load allocation tracks the instantaneous solar budget with a fixed
//     battery allowance; there is no discharge-current capping, no duty
//     scaling, and no wear balancing.
//
// Blink (blink.go) is the Blink-style tracker of reference [88]. Both
// managers read the plant through the same models InSURE plans with
// (sim.System.EstimatedSoC, server.Profile.Draw), so a paired-trace run
// compares policies, not estimates.
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
	unified

	lockout  bool // buffer disconnected after a protection trip
	targetVM int
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

// unified is what the two unified-buffer managers share: the restart
// hold-down and the one relay command that puts every unit on one bus.
type unified struct {
	seenBrownouts int
	holdDownUntil time.Duration
	lastNow       time.Duration

	modes []relay.Mode // the pass's relay command, reused
}

// restarted reports whether the plant restarted since the last pass. A
// day rollover (multi-day campaigns re-enter at a smaller time of day)
// drops the stale hold-down and adopts the fresh plant's brownout counter.
// A brownout that shut the cluster down mid-period holds restarts down for
// 10 minutes, the same hold-down InSURE uses.
func (u *unified) restarted(sys *sim.System, now time.Duration) bool {
	restarted := now < u.lastNow
	if restarted {
		u.holdDownUntil = 0
	}
	u.lastNow = now
	if b := sys.Brownouts(); b < u.seenBrownouts {
		u.seenBrownouts = b
	} else if b > u.seenBrownouts {
		u.seenBrownouts = b
		u.holdDownUntil = now + 10*time.Minute
		restarted = true
	}
	return restarted
}

// command puts every unit on the same bus: the discharge bus when
// mayDischarge holds and the cluster draws more than the renewables
// supply, the charge bus otherwise. It writes one coil block and scans, so
// the relays move this pass.
func (u *unified) command(sys *sim.System, mayDischarge bool) {
	mode := relay.Charging
	if mayDischarge && sys.Cluster.Power() > sys.SolarNow() {
		mode = relay.Discharging
	}
	if len(u.modes) != sys.Bank.Size() {
		u.modes = make([]relay.Mode, sys.Bank.Size())
	}
	for i := range u.modes {
		u.modes[i] = mode
	}
	sys.SetUnitModes(u.modes)
	sys.PLC.ScanNow()
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

// Control implements sim.Manager.
func (m *Manager) Control(sys *sim.System, now time.Duration) {
	// A restarted plant's cluster starts dark.
	if m.restarted(sys, now) {
		m.targetVM = 0
	}

	// Protection trip: the whole unified buffer disconnects at the cutoff
	// voltage and stays out until recharged (§2.3, Fig 5).
	cutoff := sys.Config().BatteryParams.CutoffVolt
	if !m.lockout && minPackVolt(sys) < cutoff {
		m.lockout = true
	}
	if m.lockout && sys.MeanEstimatedSoC() >= m.cfg.ReconnectSoC {
		m.lockout = false
	}

	// Load plan: greedy solar tracking with the fixed battery allowance
	// (§6.4: the baseline cannot adapt its nodes to the off-grid supply)
	// at full duty (the baseline never throttles frequency). A protection
	// trip takes the whole system down (§2.3: "InS has to be shut down and
	// its solar energy utilization drops to zero") and every watt of solar
	// goes to recharging the pack.
	budget := sys.SolarNow() + m.cfg.BatteryAllowance
	target := 0
	if sys.InWindow(now) && sys.Sink.HasWork(now) && now >= m.holdDownUntil && !m.lockout {
		prof, util := &sys.Config().ServerProfile, sys.Sink.Spec().Util
		for n := sys.Cluster.TotalVMSlots(); n >= 1; n-- {
			if prof.Draw(n, util, 1) <= budget {
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
	m.command(sys, !m.lockout)
}
