package core

import (
	"fmt"
	"time"

	"insure/internal/logbook"
	"insure/internal/sim"
	"insure/internal/units"
)

// Fault detection and graceful degradation (Fig 8's Offline state as a
// quarantine): the manager watches the only signals it has — the transduced
// per-unit readings — for behaviour no healthy plant can produce, and takes
// the offending unit out of rotation permanently. The remaining bank
// re-balances automatically: every scheduling pass already works off the
// group table, so an Offline quarantined unit simply stops being a
// candidate, and assignDischargeSet drafts replacements for the lost
// capacity within one control period.
//
// Every threshold is chosen so a healthy run can never trip it (healthy-run
// bit-identity is an invariant the experiment goldens enforce):
//
//   - EstimatedSoC is voltage-based, so it legitimately swings when the unit's
//     current steps (I·R compensation is imperfect and the KiBaM surface
//     charge sags under a new load). The sudden-drop screen therefore only
//     compares like-for-like readings: a >25% SoC collapse inside one
//     period at unchanged current only happens when a unit loses plates.
//   - A commanded-discharging unit sharing a real deficit carries amps;
//     reading <0.25 A for three straight minutes while its expected share
//     exceeds 1 A means its discharge relay never closed.
//   - A commanded-open unit rests at 0 A (quantisation noise is ~5 mA);
//     sustained current through it means a contact welded shut.
//   - When the shared deficit moves by more than ten ADC codes, every
//     discharging unit's current reading must move with it; a reading that
//     stays bit-identical across ten such shifts is a dead transducer stage.
//     (Steady deficits are ignored: a healthy quantised reading can
//     legitimately hold its code while the load holds.)
//   - Terminal voltage stays within [OCVEmpty−0.8 V, OCVFull+0.8 V] under
//     every legal current (cap × internal resistance ≪ 0.8 V); readings
//     outside the band mean the voltage chain walked off calibration.
const (
	suddenSoCDrop   = 0.25
	suddenDeltaAmp  = units.Amp(0.5) // current step that invalidates the SoC comparison
	suddenDeltaFrac = 0.2            // ...relative form for units already under load
	stuckLowAmp     = units.Amp(0.25)
	stuckExpectAmp  = units.Amp(1.0)
	stuckPeriods    = 6
	ghostAmp        = units.Amp(0.5)
	ghostPeriods    = 6
	frozenPeriods   = 10
	frozenDeltaAmp  = units.Amp(0.05) // ~10 ADC codes on the current channel
	voltBandMargin  = units.Volt(0.8)
	voltBandPeriods = 2
)

// FaultEvent records one quarantine decision.
type FaultEvent struct {
	At     time.Duration
	Unit   int
	Reason string
}

// faultWatch is the per-unit detector state.
type faultWatch struct {
	quarantined []bool
	prevSoC     []float64 // -1 = no sample yet
	prevCur     []units.Amp
	hasPrevCur  []bool
	prevExpect  units.Amp // last period's expected per-unit discharge share
	hasExpect   bool
	lowFor      []int
	ghostFor    []int
	frozenFor   []int
	bandFor     []int
	events      []FaultEvent
}

func newFaultWatch(n int) faultWatch {
	w := faultWatch{
		quarantined: make([]bool, n),
		prevSoC:     make([]float64, n),
		prevCur:     make([]units.Amp, n),
		hasPrevCur:  make([]bool, n),
		lowFor:      make([]int, n),
		ghostFor:    make([]int, n),
		frozenFor:   make([]int, n),
		bandFor:     make([]int, n),
	}
	for i := range w.prevSoC {
		w.prevSoC[i] = -1
	}
	return w
}

// Quarantined returns a copy of the per-unit quarantine flags.
func (m *Manager) Quarantined() []bool {
	return append([]bool(nil), m.watch.quarantined...)
}

// QuarantinedCount is the number of units taken out of rotation.
func (m *Manager) QuarantinedCount() int {
	n := 0
	for _, q := range m.watch.quarantined {
		if q {
			n++
		}
	}
	return n
}

// FaultEvents returns the quarantine decisions made so far, in order.
func (m *Manager) FaultEvents() []FaultEvent {
	return append([]FaultEvent(nil), m.watch.events...)
}

// quarantine retires unit i permanently: Offline, de-commissioned, and
// barred from SPM screening. The next scheduling pass re-balances the
// remaining bank around the hole.
func (m *Manager) quarantine(sys *sim.System, now time.Duration, i int, reason string) {
	if m.watch.quarantined[i] {
		return
	}
	m.watch.quarantined[i] = true
	m.soc = socMemo{}
	m.groups[i] = GroupOffline
	m.commissioned[i] = false
	if m.tel != nil {
		m.tel.quarantines.Inc()
	}
	m.watch.events = append(m.watch.events, FaultEvent{At: now, Unit: i, Reason: reason})
	sys.Log.Addf(now, logbook.Emergency, "faultwatch",
		"unit %d quarantined: %s", i, reason)
}

// detectFaults runs the per-period screens against the transduced readings.
func (m *Manager) detectFaults(sys *sim.System, now time.Duration) {
	p := sys.Config().BatteryParams
	nominal := p.NominalVolt

	// Expected per-unit discharge share, from what the control plane knows:
	// last tick's load and solar, split across the commanded discharge set.
	// A running secondary generator takes the base of the deficit (the
	// dispatch order in sim.Tick), so the battery share is planned net of
	// its rated output — conservatively also while it warms up, which only
	// delays detection and can never quarantine a healthy unit.
	deficit := float64(sys.LoadNow() - sys.SolarNow())
	if gen := sys.Secondary; gen != nil && gen.Running() {
		deficit -= float64(gen.Params().Rated)
	}
	nDis := m.countIn(GroupDischarging)
	var expectedPer units.Amp
	if deficit > 0 && nDis > 0 && nominal > 0 {
		expectedPer = units.Current(units.Watt(deficit/float64(nDis)), nominal)
	}

	for i, g := range m.groups {
		if m.watch.quarantined[i] {
			continue
		}
		v, cur := sys.UnitReading(i)
		soc := sys.EstimatedSoC(i)

		// Sudden capacity loss: a one-period SoC collapse at steady current.
		// A current step invalidates the comparison — the voltage-based
		// estimate sags under a new load even on a healthy unit. "Steady"
		// is relative for units already under load: a collapsing unit pulls
		// its own current off a little, and that must not mask detection.
		prevC := m.watch.prevCur[i]
		if prevC < 0 {
			prevC = -prevC
		}
		tol := suddenDeltaAmp
		if rel := units.Amp(suddenDeltaFrac * float64(prevC)); rel > tol {
			tol = rel
		}
		curSteady := m.watch.hasPrevCur[i] &&
			cur-m.watch.prevCur[i] < tol &&
			m.watch.prevCur[i]-cur < tol
		if prev := m.watch.prevSoC[i]; prev >= 0 && curSteady && prev-soc > suddenSoCDrop {
			m.quarantine(sys, now, i, fmt.Sprintf(
				"battery failure: SoC collapsed %.0f%% -> %.0f%% in one period", prev*100, soc*100))
			m.watch.prevSoC[i] = soc
			continue
		}
		m.watch.prevSoC[i] = soc

		// Voltage reading outside the physically reachable band.
		if v < p.OCVEmpty-voltBandMargin || v > p.OCVFull+voltBandMargin {
			m.watch.bandFor[i]++
			if m.watch.bandFor[i] >= voltBandPeriods {
				m.quarantine(sys, now, i, fmt.Sprintf(
					"voltage transducer implausible: %.1f V outside the OCV band", float64(v)))
				continue
			}
		} else {
			m.watch.bandFor[i] = 0
		}

		// Discharge relay stuck open: commanded to carry load, reads dead.
		if g == GroupDischarging && expectedPer > stuckExpectAmp && cur < stuckLowAmp {
			m.watch.lowFor[i]++
			if m.watch.lowFor[i] >= stuckPeriods {
				m.quarantine(sys, now, i, "discharge relay stuck open: no current under load")
				continue
			}
		} else {
			m.watch.lowFor[i] = 0
		}

		// Ghost current: commanded open, current still flows (welded contact).
		if g != GroupDischarging && g != GroupCharging {
			if cur > ghostAmp || cur < -ghostAmp {
				m.watch.ghostFor[i]++
				if m.watch.ghostFor[i] >= ghostPeriods {
					m.quarantine(sys, now, i, "relay welded closed: current through open unit")
					continue
				}
			} else {
				m.watch.ghostFor[i] = 0
			}
		} else {
			m.watch.ghostFor[i] = 0
		}

		// Frozen current transducer: the expected share moved enough to shift
		// the ADC code, yet the reading stayed bit-identical. A steady
		// deficit is no evidence either way — the counter neither advances
		// nor resets while the expected share holds still.
		expectMoved := m.watch.hasExpect &&
			(expectedPer-m.watch.prevExpect > frozenDeltaAmp ||
				m.watch.prevExpect-expectedPer > frozenDeltaAmp)
		if g == GroupDischarging && expectedPer > stuckExpectAmp && m.watch.hasPrevCur[i] {
			if expectMoved {
				if cur == m.watch.prevCur[i] {
					m.watch.frozenFor[i]++
					if m.watch.frozenFor[i] >= frozenPeriods {
						m.quarantine(sys, now, i, "current transducer stuck: reading frozen under load")
					}
				} else {
					m.watch.frozenFor[i] = 0
				}
			}
		} else {
			m.watch.frozenFor[i] = 0
		}
		m.watch.prevCur[i] = cur
		m.watch.hasPrevCur[i] = true
	}
	m.watch.prevExpect = expectedPer
	m.watch.hasExpect = true
}
