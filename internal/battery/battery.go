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

// Unit is one battery cabinet: its configuration, the KiBaM factors derived
// from it, its mutable state, and the two values derived from that state.
//
// capAh and ocv are derived from st: every method that writes st ends by
// calling derive, so the tick's many readers of a unit (SoC, the probes'
// TerminalVoltage, the charge bus voltage) read values evaluated once per
// step. A new writer of st, such as a counter added to UnitState, must end
// the same way.
type Unit struct {
	p Params

	// headPerAh = 1/c + 1/(1−c) is the change in the KiBaM head difference
	// per amp-hour moved between the wells, kk = k·headPerAh is the head
	// difference's decay rate, and relax1 = 1 − exp(−kk·1 s) is the
	// fraction of that difference relaxed over the simulation's 1 s step.
	// All three depend only on p and are set once in New.
	headPerAh, kk, relax1 float64

	st UnitState

	// capAh is the present usable capacity and ocv the open-circuit
	// voltage, both as derive last computed them from st.
	capAh float64
	ocv   units.Volt
}

// New returns a Unit at the given initial state of charge.
func New(p Params, soc float64) (*Unit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(soc >= 0 && soc <= 1) { // negated so that NaN is rejected too
		return nil, fmt.Errorf("battery: initial SoC %v out of [0,1]", soc)
	}
	nameplate := float64(p.CapacityAh)
	c := p.CapacityRatio
	headPerAh := 1/c + 1/(1-c)
	kk := p.RateConst * headPerAh
	u := &Unit{
		p:         p,
		headPerAh: headPerAh,
		kk:        kk,
		relax1:    1 - math.Exp(-kk),
		st: UnitState{
			AvailAh: soc * nameplate * c,
			BoundAh: soc * nameplate * (1 - c),
		},
	}
	u.derive()
	return u, nil
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
func (u *Unit) Params() Params { return u.p }

// derive recomputes the values derived from st. The present usable
// capacity is nameplate reduced by linear aging fade as wear accumulates
// toward the lifetime throughput, and by any injected capacity-loss fault;
// the OCV is the rest voltage the available well implies at that capacity.
func (u *Unit) derive() {
	w := u.WearFraction()
	if w > 1.5 {
		w = 1.5
	}
	fade := u.p.FadeAtEOL * w
	u.capAh = float64(u.p.CapacityAh) * (1 - fade) * (1 - u.st.FaultLoss)
	u.ocv = units.Volt(units.Lerp(float64(u.p.OCVEmpty), float64(u.p.OCVFull), u.AvailableSoC()))
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
	st := &u.st
	st.FaultLoss = 1 - (1-st.FaultLoss)*(1-frac)
	keep := (1 - frac) * (1 - frac)
	st.AvailAh *= keep
	st.BoundAh *= keep
	u.derive()
}

// Failed reports whether a capacity-loss fault has been injected.
func (u *Unit) Failed() bool { return u.st.FaultLoss > 0 }

// EffectiveCapacity is the present usable capacity after aging fade.
func (u *Unit) EffectiveCapacity() units.AmpHour { return units.AmpHour(u.capAh) }

// SoC is the total state of charge in [0,1] counting both wells, against
// the present (faded) capacity.
func (u *Unit) SoC() float64 {
	return units.Clamp((u.st.AvailAh+u.st.BoundAh)/u.capAh, 0, 1)
}

// AvailableSoC is the normalised level of the available well only. Under
// sustained high current it drops well below SoC — that gap is the
// rate-capacity effect, and its closing at rest is the recovery effect.
func (u *Unit) AvailableSoC() float64 {
	denom := u.capAh * u.p.CapacityRatio
	return units.Clamp(u.st.AvailAh/denom, 0, 1)
}

// StoredEnergy approximates the energy content at nominal voltage.
func (u *Unit) StoredEnergy() units.WattHour {
	return units.WattHour((u.st.AvailAh + u.st.BoundAh) * float64(u.p.NominalVolt))
}

// OCV is the rest (open-circuit) voltage implied by the available well.
func (u *Unit) OCV() units.Volt { return u.ocv }

// TerminalVoltage is what a transducer reads: OCV sagged or lifted by the
// most recent current through the internal resistance.
func (u *Unit) TerminalVoltage() units.Volt {
	return units.Volt(float64(u.ocv) - float64(u.st.LastI)*u.p.InternalOhm)
}

// LastCurrent is the most recent current through the unit: positive on
// discharge, negative on charge, zero at rest. With TerminalVoltage it is
// everything a transducer reads.
func (u *Unit) LastCurrent() units.Amp { return u.st.LastI }

// diffuse moves charge between the wells for dt seconds (KiBaM valve),
// within the present capacity.
func (u *Unit) diffuse(dtSec float64) {
	st := &u.st
	capAh := u.capAh
	c := u.p.CapacityRatio
	h1 := st.AvailAh / c
	h2 := st.BoundAh / (1 - c)
	// Closed-form relaxation of the head difference avoids Euler
	// instability at large dt: Δh decays with rate kk. The 1 s step's
	// factor is precomputed; it is the same expression evaluated once.
	relax := u.relax1
	if dtSec != 1 {
		relax = 1 - math.Exp(-u.kk*dtSec)
	}
	delta := (h2 - h1) * relax
	// Convert head change back to charge moved (both wells see the same
	// transferred charge q; h1 rises by q/c, h2 falls by q/(1−c)).
	q := delta / u.headPerAh
	st.AvailAh += q
	st.BoundAh -= q
	if st.AvailAh < 0 {
		st.AvailAh = 0
	}
	if st.BoundAh < 0 {
		st.BoundAh = 0
	}
	if st.AvailAh > capAh*c {
		st.AvailAh = capAh * c
	}
	if st.BoundAh > capAh*(1-c) {
		st.BoundAh = capAh * (1 - c)
	}
}

// Rest advances the unit with no current flowing; only recovery diffusion
// happens. The relay for this unit is open.
func (u *Unit) Rest(dt time.Duration) {
	u.st.LastI = 0
	u.diffuse(dt.Seconds())
	u.derive()
}

// Discharge draws current i for dt and returns the charge actually
// delivered. Delivery stops early if the available well empties; callers
// observe the shortfall as a voltage collapse.
func (u *Unit) Discharge(i units.Amp, dt time.Duration) units.AmpHour {
	if i < 0 {
		panic("battery: negative discharge current")
	}
	st := &u.st
	dtSec := dt.Seconds()
	want := float64(i) * dtSec / 3600 // Ah requested
	got := want
	if got > st.AvailAh {
		got = st.AvailAh
	}
	st.AvailAh -= got
	u.diffuse(dtSec)
	st.LastI = i
	if got < want {
		// Partially delivered: the terminal voltage should reflect a
		// collapsed available well under load.
		st.LastI = units.Amp(got * 3600 / math.Max(dtSec, 1e-9))
	}

	// The deep-discharge test reads the pre-step capacity: derive runs
	// only after the throughput update.
	wear := got
	if u.SoC() < u.p.DeepSoC {
		wear *= u.p.DeepWearFactor
	}
	st.Throughput += units.AmpHour(wear)
	st.RawOut += units.AmpHour(got)
	st.Cycles += got / float64(u.p.CapacityAh)
	u.derive()
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
	st := &u.st
	dtSec := dt.Seconds()
	// Gassing overhead is drawn first whenever the unit sits on the charge
	// bus; only the remainder does useful work.
	gas := math.Min(float64(i), float64(u.p.GassingA))
	useful := math.Min(float64(i)-gas, float64(u.p.Acceptance(u.SoC())))
	if useful < 0 {
		useful = 0
	}
	stored := useful * u.p.CoulombicEff * dtSec / 3600 // Ah

	c := u.p.CapacityRatio
	capAh := u.capAh
	// Charge enters the available well, then diffuses toward the bound well.
	room := capAh*c - st.AvailAh
	if stored > room {
		// Spill directly into the bound well when the available well tops
		// out (absorption phase).
		st.BoundAh += stored - room
		stored = room
	}
	st.AvailAh += stored
	if st.BoundAh > capAh*(1-c) {
		st.BoundAh = capAh * (1 - c)
	}
	u.diffuse(dtSec)

	drawn := units.Amp(gas + useful)
	st.LastI = -drawn
	st.RawIn += units.AmpHour(useful * dtSec / 3600)
	u.derive()
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
	return units.Volt(float64(u.ocv) + float64(u.p.MaxChargeA)*u.p.InternalOhm)
}

// Throughput returns the wear-weighted lifetime discharge throughput (the
// AhT[i] statistic driving the paper's SPM screening, Fig 9).
func (u *Unit) Throughput() units.AmpHour { return u.st.Throughput }

// RawOut returns total unweighted charge delivered over the unit's life.
func (u *Unit) RawOut() units.AmpHour { return u.st.RawOut }

// RawIn returns total unweighted charge absorbed over the unit's life.
func (u *Unit) RawIn() units.AmpHour { return u.st.RawIn }

// EquivalentCycles returns full-capacity-equivalent discharge cycles.
func (u *Unit) EquivalentCycles() float64 { return u.st.Cycles }

// WearFraction is the consumed fraction of the unit's lifetime throughput.
func (u *Unit) WearFraction() float64 {
	return float64(u.st.Throughput) / float64(u.p.LifetimeAh)
}

// RemainingLife estimates remaining service time given an average daily
// discharge throughput.
func (u *Unit) RemainingLife(dailyAh units.AmpHour) time.Duration {
	if dailyAh <= 0 {
		return time.Duration(math.MaxInt64)
	}
	days := (float64(u.p.LifetimeAh) - float64(u.st.Throughput)) / float64(dailyAh)
	if days < 0 {
		days = 0
	}
	return time.Duration(days * 24 * float64(time.Hour))
}

// SetSoC forces the state of charge, distributing charge across both wells
// at equilibrium. Intended for test setup and experiment initialisation.
func (u *Unit) SetSoC(soc float64) {
	soc = units.Clamp(soc, 0, 1)
	u.st.AvailAh = soc * u.capAh * u.p.CapacityRatio
	u.st.BoundAh = soc * u.capAh * (1 - u.p.CapacityRatio)
	u.st.LastI = 0
	u.derive()
}
