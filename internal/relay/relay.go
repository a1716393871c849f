// Package relay models the controllable switch network that makes the
// InSURE battery array reconfigurable (§3.1, §4).
//
// The prototype manages each battery with a pair of IDEC RR2P 24 V DC
// relays — one charging switch, one discharging switch — driven by the PLC's
// digital outputs. The relays have a 25 ms switching time and a 10-million
// cycle mechanical life, both of which we account for because switch-network
// longevity is part of the design's cost story.
package relay

import (
	"fmt"
	"time"
)

// SwitchTime is the prototype relay's operate/release time.
const SwitchTime = 25 * time.Millisecond

// MechanicalLife is the rated number of switching cycles.
const MechanicalLife = 10_000_000

// FailMode classifies a relay hardware fault. A faulted relay ignores coil
// commands in the direction the fault blocks: a welded contact cannot open,
// a stuck armature cannot close or settle.
type FailMode int

const (
	FailNone FailMode = iota
	// FailWeldClosed models contact welding: the contact is closed and no
	// coil command can open it.
	FailWeldClosed
	// FailStuckOpen models a seized armature: the contact never closes (and
	// an in-flight close never settles).
	FailStuckOpen
)

func (f FailMode) String() string {
	switch f {
	case FailWeldClosed:
		return "weld-closed"
	case FailStuckOpen:
		return "stuck-open"
	default:
		return "none"
	}
}

// Relay is a single electromechanical switch.
type Relay struct {
	name string
	st   RelayState

	// OnSettle, when set, is called from Tick each time an in-flight switch
	// finishes settling, with the sim-time that elapsed between the Set and
	// the settle. The value is quantised to the caller's tick size — it is
	// the settle latency as the control plane observes it, not the 25 ms
	// electromechanical constant.
	OnSettle func(waited time.Duration)
}

// New returns an open relay with the given name.
func New(name string) *Relay { return &Relay{name: name} }

// Name returns the relay's identifier.
func (r *Relay) Name() string { return r.name }

// Closed reports whether the contact is (or will settle) closed.
func (r *Relay) Closed() bool { return r.st.Closed }

// Settled reports whether any in-flight switching has completed.
func (r *Relay) Settled() bool { return r.st.Pending <= 0 }

// Cycles returns the lifetime operate count.
func (r *Relay) Cycles() int64 { return r.st.Cycles }

// Aborted returns the number of in-flight switches that were reversed before
// settling. Each abort still consumed a mechanical cycle (the armature moved
// twice through the arc gap), so aborts count toward wear.
func (r *Relay) Aborted() int64 { return r.st.Aborted }

// SettleRemaining is the time left until an in-flight switch settles (zero
// when settled; never negative).
func (r *Relay) SettleRemaining() time.Duration { return r.st.Pending }

// WearFraction is the consumed fraction of mechanical life.
func (r *Relay) WearFraction() float64 {
	return float64(r.st.Cycles) / float64(MechanicalLife)
}

// Fail injects a hardware fault. FailNone clears it (a field repair).
func (r *Relay) Fail(m FailMode) {
	st := &r.st
	st.Fail = m
	switch m {
	case FailWeldClosed:
		st.Closed = true
		st.Pending = 0
	case FailStuckOpen:
		st.Closed = false
		st.Pending = 0
	}
}

// Failed reports whether a hardware fault is present.
func (r *Relay) Failed() bool { return r.st.Fail != FailNone }

// FailState returns the injected fault mode.
func (r *Relay) FailState() FailMode { return r.st.Fail }

// Set drives the coil. A state change consumes one mechanical cycle and
// takes SwitchTime to settle; setting the current state is a no-op. A Set
// that reverses an in-flight switch aborts it: the aborted transition is
// recorded and counts toward mechanical wear. A faulted relay ignores the
// command in the blocked direction (welded contacts cannot open, a stuck
// armature cannot close).
func (r *Relay) Set(closed bool) {
	st := &r.st
	switch st.Fail {
	case FailWeldClosed:
		st.Closed = true
		return
	case FailStuckOpen:
		st.Closed = false
		return
	}
	if st.Closed == closed {
		return
	}
	if st.Pending > 0 {
		// The previous transition had not settled: the contact reverses
		// mid-travel. Record the abort and charge its wear.
		st.Aborted++
		st.Cycles++
	}
	st.Closed = closed
	st.Cycles++
	st.Pending = SwitchTime
	st.Waited = 0
}

// Tick advances time for settle accounting, clamping at zero so repeated
// ticks cannot drift the pending balance negative.
func (r *Relay) Tick(dt time.Duration) {
	st := &r.st
	if st.Pending > 0 {
		st.Waited += dt
		st.Pending -= dt
		if st.Pending < 0 {
			st.Pending = 0
		}
		if st.Pending == 0 && r.OnSettle != nil {
			r.OnSettle(st.Waited)
		}
	}
}

// Pair is the charge/discharge relay pair guarding one battery unit. The
// pair enforces the safety interlock: a unit must never be on the charge bus
// and the discharge bus at once (it would backfeed the PV string).
type Pair struct {
	Charge    *Relay
	Discharge *Relay
}

// NewPair returns an all-open pair for battery unit i.
func NewPair(i int) *Pair {
	return &Pair{
		Charge:    New(fmt.Sprintf("bat%d-CR", i)),
		Discharge: New(fmt.Sprintf("bat%d-DR", i)),
	}
}

// Mode is the electrical connection state of one battery unit.
type Mode int

const (
	Open        Mode = iota // both relays open: Offline/Standby
	Charging                // charge relay closed
	Discharging             // discharge relay closed
)

func (m Mode) String() string {
	switch m {
	case Open:
		return "open"
	case Charging:
		return "charging"
	case Discharging:
		return "discharging"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SetMode drives both relays to realise the requested mode, opening before
// closing so the interlock holds even mid-transition. If the opposite
// contact is welded closed and refuses to open, the commanded side is NOT
// closed: a unit bridging the charge and discharge buses would backfeed
// the PV string, which is the one topology the interlock exists to
// prevent. The pair stays in the welded relay's mode until the fault
// watcher quarantines it.
func (p *Pair) SetMode(m Mode) {
	switch m {
	case Open:
		p.Charge.Set(false)
		p.Discharge.Set(false)
	case Charging:
		p.Discharge.Set(false)
		if p.Discharge.Closed() {
			return // welded: refuse to double-connect
		}
		p.Charge.Set(true)
	case Discharging:
		p.Charge.Set(false)
		if p.Charge.Closed() {
			return // welded: refuse to double-connect
		}
		p.Discharge.Set(true)
	}
}

// Mode reports the pair's present connection state.
func (p *Pair) Mode() Mode {
	switch {
	case p.Charge.Closed() && p.Discharge.Closed():
		// Unreachable through SetMode; report Open so a wedged fabric
		// fails safe rather than double-connected.
		return Open
	case p.Charge.Closed():
		return Charging
	case p.Discharge.Closed():
		return Discharging
	default:
		return Open
	}
}

// Failed reports whether either relay of the pair has a hardware fault.
func (p *Pair) Failed() bool { return p.Charge.Failed() || p.Discharge.Failed() }

// Tick advances both relays.
func (p *Pair) Tick(dt time.Duration) {
	p.Charge.Tick(dt)
	p.Discharge.Tick(dt)
}

// Fabric is the switch network: one relay pair per battery unit. The bank
// is wired in parallel for good; Fig 6's series/parallel topology switches
// (P1, P2, P3) are not modelled, since no manager ever leaves parallel.
type Fabric struct {
	pairs []*Pair
}

// NewFabric builds a fabric for n battery units, every relay open.
func NewFabric(n int) *Fabric {
	f := &Fabric{pairs: make([]*Pair, n)}
	for i := range f.pairs {
		f.pairs[i] = NewPair(i)
	}
	return f
}

// Size returns the number of battery positions.
func (f *Fabric) Size() int { return len(f.pairs) }

// Pair returns the relay pair for unit i.
func (f *Fabric) Pair(i int) *Pair { return f.pairs[i] }

// Tick advances every relay in the fabric, unit by unit, charge then
// discharge contact.
func (f *Fabric) Tick(dt time.Duration) {
	for _, p := range f.pairs {
		p.Tick(dt)
	}
}

// AppendByMode is one pass over the fabric: it appends each unit's index to
// open, charging or discharging by its pair's Mode (a double-closed pair
// counts as open) and returns the three slices. Passing each as s[:0] with
// capacity Size() makes the pass allocation-free, which the simulation hot
// path relies on.
func (f *Fabric) AppendByMode(open, charging, discharging []int) ([]int, []int, []int) {
	for i, p := range f.pairs {
		switch p.Mode() {
		case Charging:
			charging = append(charging, i)
		case Discharging:
			discharging = append(discharging, i)
		default:
			open = append(open, i)
		}
	}
	return open, charging, discharging
}

// TotalCycles sums mechanical cycles across the whole network, a proxy for
// switch-fabric wear.
func (f *Fabric) TotalCycles() int64 {
	var n int64
	for _, p := range f.pairs {
		n += p.Charge.Cycles() + p.Discharge.Cycles()
	}
	return n
}
