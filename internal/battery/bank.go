package battery

import (
	"fmt"
	"time"

	"insure/internal/units"
)

// Bank is the distributed battery array: an indexed set of units that the
// relay fabric connects to the charge or discharge bus individually.
type Bank struct {
	units []*Unit // into one backing array, so the units sit contiguously
}

// NewBank builds a bank of n identical units at the given initial SoC.
func NewBank(p Params, n int, soc float64) (*Bank, error) {
	if n <= 0 {
		return nil, fmt.Errorf("battery: bank size %d must be positive", n)
	}
	u, err := New(p, soc)
	if err != nil {
		return nil, err
	}
	backing := make([]Unit, n)
	b := &Bank{units: make([]*Unit, n)}
	for i := range backing {
		backing[i] = *u
		b.units[i] = &backing[i]
	}
	return b, nil
}

// MustNewBank is NewBank for known-good parameters; it panics on error.
func MustNewBank(p Params, n int, soc float64) *Bank {
	b, err := NewBank(p, n, soc)
	if err != nil {
		panic(err)
	}
	return b
}

// Size returns the number of units in the bank.
func (b *Bank) Size() int { return len(b.units) }

// Unit returns unit i.
func (b *Bank) Unit(i int) *Unit { return b.units[i] }

// Units returns the bank's units (shared, not copied).
func (b *Bank) Units() []*Unit { return b.units }

// StoredEnergy totals the energy held across all units.
func (b *Bank) StoredEnergy() units.WattHour {
	var e units.WattHour
	for _, u := range b.units {
		e += u.StoredEnergy()
	}
	return e
}

// MeanSoC is the capacity-weighted average state of charge.
func (b *Bank) MeanSoC() float64 {
	var s, c float64
	for _, u := range b.units {
		s += u.SoC() * float64(u.p.CapacityAh)
		c += float64(u.p.CapacityAh)
	}
	if c == 0 {
		return 0
	}
	return s / c
}

// TotalThroughput sums wear-weighted throughput across units.
func (b *Bank) TotalThroughput() units.AmpHour {
	var t units.AmpHour
	for _, u := range b.units {
		t += u.Throughput()
	}
	return t
}

// ThroughputSpread returns max−min per-unit throughput, a direct measure of
// how well SPM balances wear across the array.
func (b *Bank) ThroughputSpread() units.AmpHour {
	if len(b.units) == 0 {
		return 0
	}
	min, max := b.units[0].Throughput(), b.units[0].Throughput()
	for i := 1; i < len(b.units); i++ {
		if t := b.units[i].Throughput(); t < min {
			min = t
		} else if t > max {
			max = t
		}
	}
	return max - min
}

// RestAll advances every unit with no current flowing.
func (b *Bank) RestAll(dt time.Duration) {
	for _, u := range b.units {
		u.Rest(dt)
	}
}

// DischargeSet draws total power p split evenly across the given unit
// indices for dt, and returns the energy actually delivered. Units whose
// available well empties deliver less; the caller sees the shortfall.
func (b *Bank) DischargeSet(idx []int, p units.Watt, dt time.Duration) units.WattHour {
	if len(idx) == 0 || p <= 0 {
		return 0
	}
	var delivered units.WattHour
	share := p / units.Watt(len(idx))
	for _, i := range idx {
		u := b.units[i]
		v := u.TerminalVoltage()
		if v <= 0 {
			continue
		}
		cur := units.Current(share, v)
		got := u.Discharge(cur, dt)
		delivered += units.WattHour(float64(got) * float64(v))
	}
	return delivered
}

// ChargeSet pushes budget power into the given unit indices, splitting
// evenly, and returns the power actually consumed.
func (b *Bank) ChargeSet(idx []int, budget units.Watt, dt time.Duration) units.Watt {
	if len(idx) == 0 || budget <= 0 {
		return 0
	}
	var used units.Watt
	share := budget / units.Watt(len(idx))
	for _, i := range idx {
		used += b.units[i].ChargeAtPower(share, dt)
	}
	return used
}
