package baseline

import (
	"time"

	"insure/internal/sim"
)

// blinkPeriod is Blink's control interval. Its defining feature is a fast
// loop (its namesake blinking interval).
const blinkPeriod = 10 * time.Second

// blinkMinDuty bounds the blinking duty cycle.
const blinkMinDuty = 0.1

// Blink is a Blink-style power manager (Sharma et al., ASPLOS 2011 —
// reference [88] of the paper): servers track the intermittent power
// budget directly by fast duty-cycle modulation, with the battery as a
// small unified ride-through buffer.
//
// The paper positions Blink as prior art that "mainly focuses on internet
// workloads and lacks the ability to optimize energy flow efficiency" —
// this implementation exists to make that comparison concrete: Blink keeps
// the whole cluster powered and blinks it against the supply, which wastes
// the idle-power floor under weak budgets and ignores battery health
// entirely.
type Blink struct {
	unified
	duty float64
}

var _ sim.Manager = (*Blink)(nil)

// NewBlink returns a Blink-style manager.
func NewBlink() *Blink { return &Blink{duty: 1} }

// Name implements sim.Manager.
func (m *Blink) Name() string { return "blink" }

// Period implements sim.Manager.
func (m *Blink) Period() time.Duration { return blinkPeriod }

// Control implements sim.Manager.
func (m *Blink) Control(sys *sim.System, now time.Duration) {
	m.restarted(sys, now)

	maxVMs := sys.Cluster.TotalVMSlots()
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
		prof, util := &sys.Config().ServerProfile, sys.Sink.Spec().Util
		budget := sys.SolarNow()
		duty := 1.0
		for d := 1.0; d >= blinkMinDuty; d -= 0.05 {
			duty = d
			if prof.Draw(maxVMs, util, d) <= budget {
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
	m.command(sys, true)
}
