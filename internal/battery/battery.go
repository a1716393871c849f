// Package battery models the lead-acid energy buffer units used by InSURE.
//
// The paper's power management exploits three electrochemical properties of
// lead-acid batteries (§2.2, Fig 4):
//
//  1. Rate-capacity effect: high discharge current causes a super-fast
//     apparent capacity (and terminal voltage) drop.
//  2. Recovery effect: the apparent capacity lost at high current is largely
//     recovered during periods of low demand.
//  3. Charge acceptance: a near-empty battery accepts charge at a much
//     higher rate than one close to full, and a battery held at charging
//     voltage draws a parasitic gassing current regardless of how much
//     useful charge it absorbs — so concentrating a limited power budget on
//     fewer units charges the fleet faster than batch charging.
//
// Properties 1 and 2 are reproduced with the Kinetic Battery Model (KiBaM,
// Manwell & McGowan): the battery's charge lives in an available well and a
// bound well connected by a diffusion-rate valve. Property 3 is reproduced
// with an SoC-dependent acceptance limit plus a per-connected-unit gassing
// overhead.
//
// Storage layout: unit state lives in a structure-of-arrays BankSoA store —
// parallel slices of wells, currents, and wear counters — and Unit is a
// (store, index) handle into it. A bank's units are therefore contiguous in
// memory, so a batch step walks flat arrays instead of chasing per-unit heap
// objects. The scalar math is expression-for-expression the same as the
// former per-object layout, so stepping through handles is bit-identical to
// the old path.
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"insure/internal/units"
)

// Params configures a single battery unit. The defaults (see DefaultParams)
// model the UPG UB1280 12 V 35 Ah units of the paper's prototype.
type Params struct {
	// CapacityAh is the nominal capacity at the rated discharge current.
	CapacityAh units.AmpHour
	// NominalVolt is the nameplate voltage (12 V for the prototype units).
	NominalVolt units.Volt

	// CapacityRatio (KiBaM c) is the fraction of capacity in the available
	// well. Smaller values exaggerate the rate-capacity effect.
	CapacityRatio float64
	// RateConst (KiBaM k, 1/s) governs how quickly bound charge diffuses
	// into the available well — i.e. how fast the battery recovers.
	RateConst float64

	// InternalOhm is the series resistance used for the terminal-voltage
	// model (V = OCV − I·R on discharge, OCV + I·R on charge).
	InternalOhm float64
	// OCVEmpty and OCVFull anchor the linear open-circuit-voltage curve.
	OCVEmpty units.Volt
	OCVFull  units.Volt

	// MaxChargeA is the bulk-phase charge acceptance limit (~0.25 C).
	MaxChargeA units.Amp
	// FloatA is the residual acceptance at 100% SoC.
	FloatA units.Amp
	// TaperKnee is the SoC above which acceptance tapers from MaxChargeA
	// toward FloatA.
	TaperKnee float64
	// GassingA is the parasitic current drawn whenever the unit is held at
	// charging voltage, independent of useful charge absorbed. This is the
	// per-unit overhead that makes batch charging slow (Fig 4a).
	GassingA units.Amp
	// CoulombicEff is the fraction of accepted charge actually stored.
	CoulombicEff float64

	// LifetimeAh is the total discharge throughput the unit sustains before
	// end of life (§2.2: aggregated Ah through the buffer is roughly
	// constant over its life).
	LifetimeAh units.AmpHour
	// DeepSoC marks the depth below which discharge wear is accelerated by
	// DeepWearFactor.
	DeepSoC        float64
	DeepWearFactor float64

	// CutoffVolt is the protection threshold: below it the unit must be
	// switched out (the paper's Offline mode trigger).
	CutoffVolt units.Volt

	// FadeAtEOL is the capacity fraction lost when the unit reaches its
	// lifetime throughput (lead-acid end-of-life is conventionally 80% of
	// nameplate, i.e. 0.2). Capacity fades linearly with wear, which is
	// what makes multi-day endurance campaigns age realistically.
	FadeAtEOL float64
}

// DefaultParams returns parameters calibrated to the prototype's UPG UB1280
// 12 V / 35 Ah valve-regulated lead-acid units.
func DefaultParams() Params {
	return Params{
		CapacityAh:     35,
		NominalVolt:    12,
		CapacityRatio:  0.55,
		RateConst:      4.5e-4,
		InternalOhm:    0.04,
		OCVEmpty:       11.6,
		OCVFull:        12.9,
		MaxChargeA:     8.75, // 0.25 C
		FloatA:         0.35,
		TaperKnee:      0.80,
		GassingA:       2.2,
		CoulombicEff:   0.92,
		LifetimeAh:     25000, // ≈715 full-capacity-equivalent cycles (≈4 yr at the prototype's duty)
		DeepSoC:        0.25,
		DeepWearFactor: 2.0,
		CutoffVolt:     11.8,
		FadeAtEOL:      0.2,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.CapacityAh <= 0:
		return errors.New("battery: capacity must be positive")
	case p.CapacityRatio <= 0 || p.CapacityRatio >= 1:
		return errors.New("battery: capacity ratio must be in (0,1)")
	case p.RateConst <= 0:
		return errors.New("battery: rate constant must be positive")
	case p.OCVFull <= p.OCVEmpty:
		return errors.New("battery: OCVFull must exceed OCVEmpty")
	case p.MaxChargeA <= p.FloatA:
		return errors.New("battery: MaxChargeA must exceed FloatA")
	case p.TaperKnee <= 0 || p.TaperKnee >= 1:
		return errors.New("battery: taper knee must be in (0,1)")
	case p.CoulombicEff <= 0 || p.CoulombicEff > 1:
		return errors.New("battery: coulombic efficiency must be in (0,1]")
	case p.LifetimeAh <= 0:
		return errors.New("battery: lifetime throughput must be positive")
	}
	return nil
}

// BankSoA is the structure-of-arrays store behind Unit and Bank: one parallel
// slice per state variable, so the units of a bank sit contiguously in
// memory and a batch step walks flat arrays. All units in a store share one
// Params (the prototype's banks are homogeneous); per-unit state that faults
// can skew (capacity loss) stays per-index.
type BankSoA struct {
	p Params

	// kk is the KiBaM head-difference decay rate k(1/c + 1/(1−c)), and
	// relax1 = 1 − exp(−kk·1 s) is the fraction of that difference relaxed
	// over the simulation's 1 s step. Both depend only on p and are set once
	// in NewBankSoA.
	kk, relax1 float64

	// KiBaM wells, in amp-hours.
	avail []float64 // y1: immediately extractable charge
	bound []float64 // y2: chemically bound charge

	lastI []units.Amp // signed: + discharge, − charge (for terminal voltage)

	throughput []units.AmpHour // lifetime discharge Ah (wear-weighted)
	rawOut     []units.AmpHour // unweighted Ah delivered over life
	rawIn      []units.AmpHour // unweighted Ah absorbed over life
	cycles     []float64       // full-capacity-equivalent cycles

	// faultLoss is the capacity fraction destroyed by an injected hardware
	// fault (shorted cells); zero on a healthy unit.
	faultLoss []float64
}

// NewBankSoA allocates a store of n units at the given initial state of
// charge.
func NewBankSoA(p Params, n int, soc float64) (*BankSoA, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("battery: store size %d must be positive", n)
	}
	if soc < 0 || soc > 1 {
		return nil, fmt.Errorf("battery: initial SoC %v out of [0,1]", soc)
	}
	cap := float64(p.CapacityAh)
	c := p.CapacityRatio
	kk := p.RateConst * (1/c + 1/(1-c))
	s := &BankSoA{
		p:          p,
		kk:         kk,
		relax1:     1 - math.Exp(-kk),
		avail:      make([]float64, n),
		bound:      make([]float64, n),
		lastI:      make([]units.Amp, n),
		throughput: make([]units.AmpHour, n),
		rawOut:     make([]units.AmpHour, n),
		rawIn:      make([]units.AmpHour, n),
		cycles:     make([]float64, n),
		faultLoss:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.avail[i] = soc * cap * p.CapacityRatio
		s.bound[i] = soc * cap * (1 - p.CapacityRatio)
	}
	return s, nil
}

// Len returns the number of unit slots in the store.
func (s *BankSoA) Len() int { return len(s.avail) }

// Params returns the store's shared unit configuration.
func (s *BankSoA) Params() Params { return s.p }

// Unit is one battery cabinet: a handle onto one index of a BankSoA store.
// Copies of a Unit alias the same state, so handles can be passed by value
// or pointer interchangeably.
type Unit struct {
	s *BankSoA
	i int
}

// New returns a standalone Unit at the given initial state of charge,
// backed by its own single-slot store.
func New(p Params, soc float64) (*Unit, error) {
	s, err := NewBankSoA(p, 1, soc)
	if err != nil {
		return nil, err
	}
	return &Unit{s: s, i: 0}, nil
}

// MustNew is New for known-good parameters; it panics on error.
func MustNew(p Params, soc float64) *Unit {
	u, err := New(p, soc)
	if err != nil {
		panic(err)
	}
	return u
}

// Params returns the unit's configuration.
func (u *Unit) Params() Params { return u.s.p }

// capAh is the present usable capacity: nameplate reduced by linear aging
// fade as wear accumulates toward the lifetime throughput, and by any
// injected capacity-loss fault.
func (u *Unit) capAh() float64 {
	w := u.WearFraction()
	if w > 1.5 {
		w = 1.5
	}
	fade := u.s.p.FadeAtEOL * w
	return float64(u.s.p.CapacityAh) * (1 - fade) * (1 - u.s.faultLoss[u.i])
}

// InjectCapacityLoss destroys frac of the unit's capacity mid-operation —
// the signature of shorted cells in a VRLA block. The stored charge falls
// disproportionately (charge in the shorted cells is gone AND the remaining
// cells see it as a lower state of charge), so the terminal voltage collapses
// observably: the wells scale by (1−frac)², the capacity by (1−frac).
func (u *Unit) InjectCapacityLoss(frac float64) {
	frac = units.Clamp(frac, 0, 0.99)
	if frac == 0 {
		return
	}
	s, i := u.s, u.i
	s.faultLoss[i] = 1 - (1-s.faultLoss[i])*(1-frac)
	keep := (1 - frac) * (1 - frac)
	s.avail[i] *= keep
	s.bound[i] *= keep
}

// Failed reports whether a capacity-loss fault has been injected.
func (u *Unit) Failed() bool { return u.s.faultLoss[u.i] > 0 }

// EffectiveCapacity is the present usable capacity after aging fade.
func (u *Unit) EffectiveCapacity() units.AmpHour { return units.AmpHour(u.capAh()) }

// SoC is the total state of charge in [0,1] counting both wells, against
// the present (faded) capacity.
func (u *Unit) SoC() float64 {
	return units.Clamp((u.s.avail[u.i]+u.s.bound[u.i])/u.capAh(), 0, 1)
}

// AvailableSoC is the normalised level of the available well only. Under
// sustained high current it drops well below SoC — that gap is the
// rate-capacity effect, and its closing at rest is the recovery effect.
func (u *Unit) AvailableSoC() float64 {
	denom := u.capAh() * u.s.p.CapacityRatio
	return units.Clamp(u.s.avail[u.i]/denom, 0, 1)
}

// StoredEnergy approximates the energy content at nominal voltage.
func (u *Unit) StoredEnergy() units.WattHour {
	return units.WattHour((u.s.avail[u.i] + u.s.bound[u.i]) * float64(u.s.p.NominalVolt))
}

// OCV is the rest (open-circuit) voltage implied by the available well.
func (u *Unit) OCV() units.Volt {
	return units.Volt(units.Lerp(float64(u.s.p.OCVEmpty), float64(u.s.p.OCVFull), u.AvailableSoC()))
}

// TerminalVoltage is what a transducer reads: OCV sagged or lifted by the
// most recent current through the internal resistance.
func (u *Unit) TerminalVoltage() units.Volt {
	return units.Volt(float64(u.OCV()) - float64(u.s.lastI[u.i])*u.s.p.InternalOhm)
}

// LastCurrent is the most recent current through the unit: positive on
// discharge, negative on charge, zero at rest. With TerminalVoltage it is
// everything a transducer reads, without Snapshot's SoC and energy work.
func (u *Unit) LastCurrent() units.Amp { return u.s.lastI[u.i] }

// BelowCutoff reports whether the protection threshold has been crossed.
func (u *Unit) BelowCutoff() bool { return u.TerminalVoltage() < u.s.p.CutoffVolt }

// Empty reports whether the available well is exhausted (the battery cannot
// source current even though bound charge may remain).
func (u *Unit) Empty() bool { return u.s.avail[u.i] <= 1e-9 }

// diffuse moves charge between the wells at index i for dt seconds (KiBaM
// valve). This is the shared kernel of the per-unit and batch paths, so the
// two are bit-identical by construction.
func (s *BankSoA) diffuse(i int, dtSec float64, capAh float64) {
	c := s.p.CapacityRatio
	h1 := s.avail[i] / c
	h2 := s.bound[i] / (1 - c)
	// Closed-form relaxation of the head difference avoids Euler
	// instability at large dt: Δh decays with rate kk. The 1 s step's
	// factor is precomputed; it is the same expression evaluated once.
	relax := s.relax1
	if dtSec != 1 {
		relax = 1 - math.Exp(-s.kk*dtSec)
	}
	delta := (h2 - h1) * relax
	// Convert head change back to charge moved (both wells see the same
	// transferred charge q; h1 rises by q/c, h2 falls by q/(1−c)).
	q := delta / (1/c + 1/(1-c))
	s.avail[i] += q
	s.bound[i] -= q
	if s.avail[i] < 0 {
		s.avail[i] = 0
	}
	if s.bound[i] < 0 {
		s.bound[i] = 0
	}
	if s.avail[i] > capAh*c {
		s.avail[i] = capAh * c
	}
	if s.bound[i] > capAh*(1-c) {
		s.bound[i] = capAh * (1 - c)
	}
}

// capAhAt is capAh for slot i (the Unit method with the handle unwrapped).
func (s *BankSoA) capAhAt(i int) float64 {
	w := float64(s.throughput[i]) / float64(s.p.LifetimeAh)
	if w > 1.5 {
		w = 1.5
	}
	fade := s.p.FadeAtEOL * w
	return float64(s.p.CapacityAh) * (1 - fade) * (1 - s.faultLoss[i])
}

// Rest advances the unit with no current flowing; only recovery diffusion
// happens. The relay for this unit is open.
func (u *Unit) Rest(dt time.Duration) {
	u.s.lastI[u.i] = 0
	u.s.diffuse(u.i, dt.Seconds(), u.capAh())
}

// RestAll batch-steps every unit in the store with no current flowing.
// Equivalent (bit-for-bit) to calling Rest on each unit in index order.
func (s *BankSoA) RestAll(dt time.Duration) {
	dtSec := dt.Seconds()
	for i := range s.avail {
		s.lastI[i] = 0
		s.diffuse(i, dtSec, s.capAhAt(i))
	}
}

// Discharge draws current i for dt and returns the charge actually
// delivered. Delivery stops early if the available well empties; callers
// observe the shortfall as a voltage collapse.
func (u *Unit) Discharge(i units.Amp, dt time.Duration) units.AmpHour {
	if i < 0 {
		panic("battery: negative discharge current")
	}
	s, k := u.s, u.i
	dtSec := dt.Seconds()
	want := float64(i) * dtSec / 3600 // Ah requested
	got := want
	if got > s.avail[k] {
		got = s.avail[k]
	}
	s.avail[k] -= got
	s.diffuse(k, dtSec, u.capAh())
	s.lastI[k] = i
	if got < want {
		// Partially delivered: the terminal voltage should reflect a
		// collapsed available well under load.
		s.lastI[k] = units.Amp(got * 3600 / math.Max(dtSec, 1e-9))
	}

	wear := got
	if u.SoC() < s.p.DeepSoC {
		wear *= s.p.DeepWearFactor
	}
	s.throughput[k] += units.AmpHour(wear)
	s.rawOut[k] += units.AmpHour(got)
	s.cycles[k] += got / float64(s.p.CapacityAh)
	return units.AmpHour(got)
}

// Acceptance is the maximum useful charging current at state of charge s.
func (p Params) Acceptance(s float64) units.Amp {
	if s <= p.TaperKnee {
		return p.MaxChargeA
	}
	t := (s - p.TaperKnee) / (1 - p.TaperKnee)
	return units.Amp(units.Lerp(float64(p.MaxChargeA), float64(p.FloatA), t))
}

// PeakChargePower is P_PC from the paper's SPM (Fig 10): the charging power
// one unit absorbs at full acceptance, including the gassing overhead. The
// optimal batch size is budget / PeakChargePower.
func (p Params) PeakChargePower() units.Watt {
	v := float64(p.OCVFull) + float64(p.MaxChargeA)*p.InternalOhm
	return units.Watt((float64(p.MaxChargeA) + float64(p.GassingA)) * v)
}

// Charge pushes up to current i into the unit for dt and returns the current
// actually drawn from the supply (useful charge + gassing overhead). The
// stored charge is limited by acceptance and coulombic efficiency.
func (u *Unit) Charge(i units.Amp, dt time.Duration) units.Amp {
	if i < 0 {
		panic("battery: negative charge current")
	}
	s, k := u.s, u.i
	dtSec := dt.Seconds()
	// Gassing overhead is drawn first whenever the unit sits on the charge
	// bus; only the remainder does useful work.
	gas := math.Min(float64(i), float64(s.p.GassingA))
	useful := math.Min(float64(i)-gas, float64(s.p.Acceptance(u.SoC())))
	if useful < 0 {
		useful = 0
	}
	stored := useful * s.p.CoulombicEff * dtSec / 3600 // Ah

	c := s.p.CapacityRatio
	capAh := u.capAh()
	// Charge enters the available well, then diffuses toward the bound well.
	room := capAh*c - s.avail[k]
	if stored > room {
		// Spill directly into the bound well when the available well tops
		// out (absorption phase).
		s.bound[k] += stored - room
		stored = room
	}
	s.avail[k] += stored
	if s.bound[k] > capAh*(1-c) {
		s.bound[k] = capAh * (1 - c)
	}
	s.diffuse(k, dtSec, capAh)

	drawn := units.Amp(gas + useful)
	s.lastI[k] = -drawn
	s.rawIn[k] += units.AmpHour(useful * dtSec / 3600)
	return drawn
}

// ChargeAtPower charges from a power budget at the unit's present charging
// voltage, returning the power actually consumed.
func (u *Unit) ChargeAtPower(p units.Watt, dt time.Duration) units.Watt {
	if p <= 0 {
		u.Rest(dt)
		return 0
	}
	v := u.chargeBusVoltage()
	i := units.Current(p, v)
	drawn := u.Charge(i, dt)
	return units.Power(drawn, v)
}

// chargeBusVoltage approximates the regulated charging voltage for the unit.
func (u *Unit) chargeBusVoltage() units.Volt {
	return units.Volt(float64(u.OCV()) + float64(u.s.p.MaxChargeA)*u.s.p.InternalOhm)
}

// Throughput returns the wear-weighted lifetime discharge throughput (the
// AhT[i] statistic driving the paper's SPM screening, Fig 9).
func (u *Unit) Throughput() units.AmpHour { return u.s.throughput[u.i] }

// RawOut returns total unweighted charge delivered over the unit's life.
func (u *Unit) RawOut() units.AmpHour { return u.s.rawOut[u.i] }

// RawIn returns total unweighted charge absorbed over the unit's life.
func (u *Unit) RawIn() units.AmpHour { return u.s.rawIn[u.i] }

// EquivalentCycles returns full-capacity-equivalent discharge cycles.
func (u *Unit) EquivalentCycles() float64 { return u.s.cycles[u.i] }

// WearFraction is the consumed fraction of the unit's lifetime throughput.
func (u *Unit) WearFraction() float64 {
	return float64(u.s.throughput[u.i]) / float64(u.s.p.LifetimeAh)
}

// RemainingLife estimates remaining service time given an average daily
// discharge throughput.
func (u *Unit) RemainingLife(dailyAh units.AmpHour) time.Duration {
	if dailyAh <= 0 {
		return time.Duration(math.MaxInt64)
	}
	days := (float64(u.s.p.LifetimeAh) - float64(u.s.throughput[u.i])) / float64(dailyAh)
	if days < 0 {
		days = 0
	}
	return time.Duration(days * 24 * float64(time.Hour))
}

// SetSoC forces the state of charge, distributing charge across both wells
// at equilibrium. Intended for test setup and experiment initialisation.
func (u *Unit) SetSoC(soc float64) {
	soc = units.Clamp(soc, 0, 1)
	capAh := u.capAh()
	u.s.avail[u.i] = soc * capAh * u.s.p.CapacityRatio
	u.s.bound[u.i] = soc * capAh * (1 - u.s.p.CapacityRatio)
	u.s.lastI[u.i] = 0
}

// Snapshot is an immutable view of the unit for recorders and sensors.
type Snapshot struct {
	SoC          float64
	AvailableSoC float64
	Terminal     units.Volt
	LastCurrent  units.Amp
	Throughput   units.AmpHour
	StoredEnergy units.WattHour
}

// Snapshot captures the observable state of the unit.
func (u *Unit) Snapshot() Snapshot {
	return Snapshot{
		SoC:          u.SoC(),
		AvailableSoC: u.AvailableSoC(),
		Terminal:     u.TerminalVoltage(),
		LastCurrent:  u.s.lastI[u.i],
		Throughput:   u.s.throughput[u.i],
		StoredEnergy: u.StoredEnergy(),
	}
}
