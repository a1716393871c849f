// Package relay models the controllable switch network that makes the
// InSURE battery array reconfigurable (§3.1, §4).
//
// The prototype manages each battery with a pair of IDEC RR2P 24 V DC
// relays — one charging switch, one discharging switch — driven by the PLC's
// digital outputs. The relays have a 25 ms switching time and a 10-million
// cycle mechanical life, both of which we account for because switch-network
// longevity is part of the design's cost story.
//
// Storage layout: contact state (position, wear counters, settle timers,
// injected faults) lives in a structure-of-arrays store shared by every
// relay of a fabric, and Relay is a stable (store, index) handle carrying
// only wiring (name, the OnSettle hook). A fabric tick therefore walks flat
// arrays instead of scattered heap objects; the Relay/Pair/Fabric API and
// the per-relay semantics are unchanged.
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

// store is the structure-of-arrays contact state for a set of relays: one
// parallel slice per variable, one slot per relay.
type store struct {
	closed  []bool
	cycles  []int64
	aborted []int64
	pending []time.Duration // time remaining until an in-flight switch settles
	waited  []time.Duration // sim-time elapsed since the in-flight Set
	fail    []FailMode
}

func newStore(n int) *store {
	return &store{
		closed:  make([]bool, n),
		cycles:  make([]int64, n),
		aborted: make([]int64, n),
		pending: make([]time.Duration, n),
		waited:  make([]time.Duration, n),
		fail:    make([]FailMode, n),
	}
}

// Relay is a single electromechanical switch: a handle onto one slot of a
// fabric's contact-state store.
type Relay struct {
	s    *store
	i    int
	name string

	// OnSettle, when set, is called from Tick each time an in-flight switch
	// finishes settling, with the sim-time that elapsed between the Set and
	// the settle. The value is quantised to the caller's tick size — it is
	// the settle latency as the control plane observes it, not the 25 ms
	// electromechanical constant.
	OnSettle func(waited time.Duration)
}

// New returns an open standalone relay with the given name, backed by its
// own single-slot store.
func New(name string) *Relay { return &Relay{s: newStore(1), name: name} }

// Name returns the relay's identifier.
func (r *Relay) Name() string { return r.name }

// Closed reports whether the contact is (or will settle) closed.
func (r *Relay) Closed() bool { return r.s.closed[r.i] }

// Settled reports whether any in-flight switching has completed.
func (r *Relay) Settled() bool { return r.s.pending[r.i] <= 0 }

// Cycles returns the lifetime operate count.
func (r *Relay) Cycles() int64 { return r.s.cycles[r.i] }

// Aborted returns the number of in-flight switches that were reversed before
// settling. Each abort still consumed a mechanical cycle (the armature moved
// twice through the arc gap), so aborts count toward wear.
func (r *Relay) Aborted() int64 { return r.s.aborted[r.i] }

// SettleRemaining is the time left until an in-flight switch settles (zero
// when settled; never negative).
func (r *Relay) SettleRemaining() time.Duration { return r.s.pending[r.i] }

// WearFraction is the consumed fraction of mechanical life.
func (r *Relay) WearFraction() float64 {
	return float64(r.s.cycles[r.i]) / float64(MechanicalLife)
}

// Fail injects a hardware fault. FailNone clears it (a field repair).
func (r *Relay) Fail(m FailMode) {
	s, i := r.s, r.i
	s.fail[i] = m
	switch m {
	case FailWeldClosed:
		s.closed[i] = true
		s.pending[i] = 0
	case FailStuckOpen:
		s.closed[i] = false
		s.pending[i] = 0
	}
}

// Failed reports whether a hardware fault is present.
func (r *Relay) Failed() bool { return r.s.fail[r.i] != FailNone }

// FailState returns the injected fault mode.
func (r *Relay) FailState() FailMode { return r.s.fail[r.i] }

// Set drives the coil. A state change consumes one mechanical cycle and
// takes SwitchTime to settle; setting the current state is a no-op. A Set
// that reverses an in-flight switch aborts it: the aborted transition is
// recorded and counts toward mechanical wear. A faulted relay ignores the
// command in the blocked direction (welded contacts cannot open, a stuck
// armature cannot close).
func (r *Relay) Set(closed bool) {
	s, i := r.s, r.i
	switch s.fail[i] {
	case FailWeldClosed:
		s.closed[i] = true
		return
	case FailStuckOpen:
		s.closed[i] = false
		return
	}
	if s.closed[i] == closed {
		return
	}
	if s.pending[i] > 0 {
		// The previous transition had not settled: the contact reverses
		// mid-travel. Record the abort and charge its wear.
		s.aborted[i]++
		s.cycles[i]++
	}
	s.closed[i] = closed
	s.cycles[i]++
	s.pending[i] = SwitchTime
	s.waited[i] = 0
}

// Tick advances time for settle accounting, clamping at zero so repeated
// ticks cannot drift the pending balance negative.
func (r *Relay) Tick(dt time.Duration) {
	s, i := r.s, r.i
	if s.pending[i] > 0 {
		s.waited[i] += dt
		s.pending[i] -= dt
		if s.pending[i] < 0 {
			s.pending[i] = 0
		}
		if s.pending[i] == 0 && r.OnSettle != nil {
			r.OnSettle(s.waited[i])
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

// Fabric is the whole switch network: one pair per battery unit plus the
// series/parallel topology switches (P1, P2, P3 in Fig 6). All of a
// fabric's contact state lives in one store, laid out pair-major
// (charge0, discharge0, charge1, … P1, P2, P3), so Tick and the mode
// queries scan contiguous memory.
type Fabric struct {
	pairs []*Pair

	// Topology switches: P1/P3 closed + P2 open = parallel;
	// P1/P3 open + P2 closed = series.
	P1, P2, P3 *Relay
}

// NewFabric builds a fabric for n battery units, initially all open and in
// parallel topology.
func NewFabric(n int) *Fabric {
	s := newStore(2*n + 3)
	f := &Fabric{
		pairs: make([]*Pair, n),
		P1:    &Relay{s: s, i: 2 * n, name: "P1"},
		P2:    &Relay{s: s, i: 2*n + 1, name: "P2"},
		P3:    &Relay{s: s, i: 2*n + 2, name: "P3"},
	}
	for i := range f.pairs {
		f.pairs[i] = &Pair{
			Charge:    &Relay{s: s, i: 2 * i, name: fmt.Sprintf("bat%d-CR", i)},
			Discharge: &Relay{s: s, i: 2*i + 1, name: fmt.Sprintf("bat%d-DR", i)},
		}
	}
	f.SetParallel()
	return f
}

// Size returns the number of battery positions.
func (f *Fabric) Size() int { return len(f.pairs) }

// Pair returns the relay pair for unit i.
func (f *Fabric) Pair(i int) *Pair { return f.pairs[i] }

// SetParallel configures the bank for parallel output (same voltage, summed
// ampere-hours).
func (f *Fabric) SetParallel() {
	f.P2.Set(false)
	f.P1.Set(true)
	f.P3.Set(true)
}

// SetSeries configures the bank for series output (summed voltage).
func (f *Fabric) SetSeries() {
	f.P1.Set(false)
	f.P3.Set(false)
	f.P2.Set(true)
}

// Parallel reports whether the topology is parallel.
func (f *Fabric) Parallel() bool {
	return f.P1.Closed() && f.P3.Closed() && !f.P2.Closed()
}

// Tick advances every relay in the fabric, in the same order as before the
// SoA layout: pair contacts first (charge then discharge per unit), then the
// topology switches.
func (f *Fabric) Tick(dt time.Duration) {
	for _, p := range f.pairs {
		p.Tick(dt)
	}
	f.P1.Tick(dt)
	f.P2.Tick(dt)
	f.P3.Tick(dt)
}

// UnitsIn returns the indices currently in the given mode.
func (f *Fabric) UnitsIn(m Mode) []int {
	var idx []int
	for i, p := range f.pairs {
		if p.Mode() == m {
			idx = append(idx, i)
		}
	}
	return idx
}

// AppendUnitsIn appends the indices currently in the given mode to dst and
// returns it. Passing dst[:0] with capacity Size() makes the per-tick mode
// query allocation-free, which the simulation hot path relies on.
func (f *Fabric) AppendUnitsIn(dst []int, m Mode) []int {
	for i, p := range f.pairs {
		if p.Mode() == m {
			dst = append(dst, i)
		}
	}
	return dst
}

// TotalCycles sums mechanical cycles across the whole network, a proxy for
// switch-fabric wear.
func (f *Fabric) TotalCycles() int64 {
	var n int64
	for _, p := range f.pairs {
		n += p.Charge.Cycles() + p.Discharge.Cycles()
	}
	return n + f.P1.Cycles() + f.P2.Cycles() + f.P3.Cycles()
}
