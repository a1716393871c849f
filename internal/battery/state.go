package battery

import (
	"insure/internal/journal"
	"insure/internal/units"
)

// unitStateVersion guards the binary layout of a serialized Unit.
const unitStateVersion = 1

// UnitState is the complete mutable state of one battery unit — the KiBaM
// wells, the last observed current, and the lifetime coulomb counters. It
// deliberately excludes Params: configuration is reconstructed by the
// caller, not persisted, so a config change cannot be masked by stale
// state on disk.
type UnitState struct {
	AvailAh    float64       // available well (KiBaM y1), amp-hours
	BoundAh    float64       // bound well (KiBaM y2), amp-hours
	LastI      units.Amp     // signed: + discharge, − charge (for terminal voltage)
	Throughput units.AmpHour // lifetime discharge Ah, wear-weighted
	RawOut     units.AmpHour // unweighted Ah delivered over life
	RawIn      units.AmpHour // unweighted Ah absorbed over life
	Cycles     float64       // full-capacity-equivalent cycles
	// FaultLoss is the capacity fraction destroyed by an injected hardware
	// fault (shorted cells); zero on a healthy unit.
	FaultLoss float64
}

// State captures the unit's full mutable state.
func (u *Unit) State() UnitState { return u.st }

// walk is the unit's one persisted layout.
func (st *UnitState) walk(c journal.Codec) {
	c.Version(unitStateVersion)
	journal.F64(c, &st.AvailAh)
	journal.F64(c, &st.BoundAh)
	journal.F64(c, &st.LastI)
	journal.F64(c, &st.Throughput)
	journal.F64(c, &st.RawOut)
	journal.F64(c, &st.RawIn)
	journal.F64(c, &st.Cycles)
	journal.F64(c, &st.FaultLoss)
}

// Walk is the bank's one persisted layout: the unit count, which must
// match the bank's, then every unit's state. Decoding re-derives each
// unit's capacity and OCV from the state it read.
func (b *Bank) Walk(c journal.Codec) {
	c.Size(len(b.units), "battery: restoring %d unit states into bank of %d")
	for _, u := range b.units {
		u.st.walk(c)
		if c.Decoding() {
			u.derive()
		}
	}
}

// AppendState serializes the whole bank into e.
func (b *Bank) AppendState(e *journal.Encoder) { b.Walk(journal.Encoding(e)) }
