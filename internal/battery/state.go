package battery

import (
	"fmt"

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

// Restore overwrites the unit's mutable state. Params are untouched.
func (u *Unit) Restore(st UnitState) { u.st = st }

// AppendTo serializes the state bit-exactly into e.
func (st UnitState) AppendTo(e *journal.Encoder) {
	e.U8(unitStateVersion)
	e.F64(st.AvailAh)
	e.F64(st.BoundAh)
	e.F64(float64(st.LastI))
	e.F64(float64(st.Throughput))
	e.F64(float64(st.RawOut))
	e.F64(float64(st.RawIn))
	e.F64(st.Cycles)
	e.F64(st.FaultLoss)
}

// ReadUnitState decodes one UnitState written by AppendTo.
func ReadUnitState(d *journal.Decoder) UnitState {
	d.ExpectVersion(unitStateVersion)
	return UnitState{
		AvailAh:    d.F64(),
		BoundAh:    d.F64(),
		LastI:      units.Amp(d.F64()),
		Throughput: units.AmpHour(d.F64()),
		RawOut:     units.AmpHour(d.F64()),
		RawIn:      units.AmpHour(d.F64()),
		Cycles:     d.F64(),
		FaultLoss:  d.F64(),
	}
}

// AppendState serializes the whole bank into e.
func (b *Bank) AppendState(e *journal.Encoder) {
	e.Int(len(b.units))
	for _, u := range b.units {
		u.State().AppendTo(e)
	}
}

// RestoreState decodes a bank serialized by AppendState into b.
func (b *Bank) RestoreState(d *journal.Decoder) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(b.units) {
		return fmt.Errorf("battery: restoring %d unit states into bank of %d", n, len(b.units))
	}
	for _, u := range b.units {
		u.Restore(ReadUnitState(d))
	}
	return d.Err()
}
