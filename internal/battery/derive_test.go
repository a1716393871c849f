package battery

import (
	"math"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/units"
)

// view is everything a reader of a unit sees that depends on its capacity
// and open-circuit voltage.
type view struct {
	ocv, term, soc, avail, capAh float64
}

// refView evaluates the view from scratch, from the unit's parameters and
// state alone: the reference the unit's stored capacity and OCV must match.
func refView(u *Unit) view {
	p, st := u.Params(), u.State()
	w := float64(st.Throughput) / float64(p.LifetimeAh)
	if w > 1.5 {
		w = 1.5
	}
	fade := p.FadeAtEOL * w
	capAh := float64(p.CapacityAh) * (1 - fade) * (1 - st.FaultLoss)
	denom := capAh * p.CapacityRatio
	avail := units.Clamp(st.AvailAh/denom, 0, 1)
	ocv := units.Lerp(float64(p.OCVEmpty), float64(p.OCVFull), avail)
	return view{
		ocv:   ocv,
		term:  ocv - float64(st.LastI)*p.InternalOhm,
		soc:   units.Clamp((st.AvailAh+st.BoundAh)/capAh, 0, 1),
		avail: avail,
		capAh: capAh,
	}
}

// checkDerived compares the unit's view with refView bit for bit.
func checkDerived(t *testing.T, step string, u *Unit) {
	t.Helper()
	got := view{
		ocv:   float64(u.OCV()),
		term:  float64(u.TerminalVoltage()),
		soc:   u.SoC(),
		avail: u.AvailableSoC(),
		capAh: float64(u.EffectiveCapacity()),
	}
	want := refView(u)
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"OCV", got.ocv, want.ocv},
		{"TerminalVoltage", got.term, want.term},
		{"SoC", got.soc, want.soc},
		{"AvailableSoC", got.avail, want.avail},
		{"EffectiveCapacity", got.capAh, want.capAh},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("after %s: %s = %v, from scratch %v", step, f.name, f.got, f.want)
		}
	}
}

// driveUnit walks u through every method that writes its state, checking
// the derived values after each step. The steps move the wells before each
// rest so diffusion has a head difference to relax, empty the available
// well with a partial discharge, and fade the capacity with a fault.
func driveUnit(t *testing.T, u *Unit) {
	t.Helper()
	steps := []struct {
		name string
		do   func()
	}{
		{"Discharge", func() { u.Discharge(20, time.Minute) }},
		{"Rest", func() { u.Rest(time.Second) }},
		{"partial Discharge", func() {
			want := units.AmpHour(400 * 600.0 / 3600)
			if got := u.Discharge(400, 10*time.Minute); got >= want {
				t.Fatalf("discharge delivered %v of %v Ah: the available well never emptied", got, want)
			}
		}},
		{"Rest after the well emptied", func() { u.Rest(30 * time.Second) }},
		{"Charge", func() { u.Charge(5, time.Minute) }},
		{"Rest after a charge", func() { u.Rest(time.Second) }},
		{"ChargeAtPower", func() { u.ChargeAtPower(100, time.Second) }},
		{"ChargeAtPower at 0 W", func() { u.ChargeAtPower(0, time.Second) }},
		{"InjectCapacityLoss", func() { u.InjectCapacityLoss(0.3) }},
		{"Discharge after the fault", func() { u.Discharge(8, time.Second) }},
		{"SetSoC", func() { u.SetSoC(0.4) }},
		{"Charge after SetSoC", func() { u.Charge(3, 90*time.Second) }},
	}
	for _, s := range steps {
		s.do()
		checkDerived(t, s.name, u)
	}
}

// TestDerivedValuesNeverStale checks that a unit's stored capacity and OCV
// always equal the from-scratch formulas: on a new unit driven through
// every state-writing method, and on a bank decoded with Walk into a bank
// built at another SoC, before and after driving it the same way.
func TestDerivedValuesNeverStale(t *testing.T) {
	u := MustNew(DefaultParams(), 0.7)
	checkDerived(t, "New", u)
	driveUnit(t, u)

	live := MustNewBank(DefaultParams(), 4, 0.6)
	workBank(live, 30)
	live.Unit(1).InjectCapacityLoss(0.2)
	var e journal.Encoder
	live.AppendState(&e)
	restored := MustNewBank(DefaultParams(), 4, 0.3)
	d := journal.NewDecoder(e.Bytes())
	restored.Walk(journal.Decoding(d))
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i, ru := range restored.Units() {
		if ru.State() != live.Unit(i).State() {
			t.Fatalf("unit %d state did not round-trip", i)
		}
		checkDerived(t, "Walk", ru)
		driveUnit(t, ru)
	}
}
