package battery

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"insure/internal/units"
)

func newUnit(t *testing.T, soc float64) *Unit {
	t.Helper()
	u, err := New(DefaultParams(), soc)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CapacityAh = 0 },
		func(p *Params) { p.CapacityRatio = 0 },
		func(p *Params) { p.CapacityRatio = 1 },
		func(p *Params) { p.RateConst = -1 },
		func(p *Params) { p.OCVFull = p.OCVEmpty },
		func(p *Params) { p.MaxChargeA = p.FloatA },
		func(p *Params) { p.TaperKnee = 1.2 },
		func(p *Params) { p.CoulombicEff = 0 },
		func(p *Params) { p.LifetimeAh = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsBadSoC(t *testing.T) {
	if _, err := New(DefaultParams(), -0.1); err == nil {
		t.Error("negative SoC accepted")
	}
	if _, err := New(DefaultParams(), 1.1); err == nil {
		t.Error("SoC > 1 accepted")
	}
}

// TestNewRejectsNonFiniteSoC checks that New and NewBank reject every
// initial SoC outside [0,1], NaN included: NaN compares false both ways, so
// a check written as soc < 0 || soc > 1 would build units whose every
// reading is NaN.
func TestNewRejectsNonFiniteSoC(t *testing.T) {
	for _, soc := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		if _, err := New(DefaultParams(), soc); err == nil {
			t.Errorf("New accepted initial SoC %v", soc)
		}
		if _, err := NewBank(DefaultParams(), 3, soc); err == nil {
			t.Errorf("NewBank accepted initial SoC %v", soc)
		}
	}
}

func TestInitialState(t *testing.T) {
	u := newUnit(t, 0.5)
	if got := u.SoC(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("SoC = %v, want 0.5", got)
	}
	if got := u.AvailableSoC(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AvailableSoC = %v, want 0.5 at equilibrium", got)
	}
	if v := u.TerminalVoltage(); v <= u.Params().OCVEmpty || v >= u.Params().OCVFull {
		t.Errorf("terminal voltage %v outside OCV band at rest", v)
	}
}

func TestDischargeConservesCharge(t *testing.T) {
	u := newUnit(t, 1.0)
	before := u.SoC() * float64(u.Params().CapacityAh)
	var out units.AmpHour
	for i := 0; i < 3600; i++ {
		out += u.Discharge(5, time.Second)
	}
	after := u.SoC() * float64(u.Params().CapacityAh)
	if math.Abs((before-after)-float64(out)) > 0.05 {
		t.Errorf("charge not conserved: drop %.3f Ah, delivered %.3f Ah", before-after, float64(out))
	}
}

func TestRateCapacityEffect(t *testing.T) {
	// Discharging at high current must deplete the available well much
	// faster than total SoC — the apparent capacity collapse of Fig 4b.
	u := newUnit(t, 1.0)
	for i := 0; i < 1800; i++ { // 30 min at 20 A (0.57 C)
		u.Discharge(20, time.Second)
	}
	gap := u.SoC() - u.AvailableSoC()
	if gap < 0.05 {
		t.Errorf("expected available-well depletion under high current, gap = %.3f", gap)
	}
	// At low current the gap stays small.
	u2 := newUnit(t, 1.0)
	for i := 0; i < 1800; i++ {
		u2.Discharge(2, time.Second)
	}
	gap2 := u2.SoC() - u2.AvailableSoC()
	if gap2 >= gap/2 {
		t.Errorf("low-current gap %.3f should be well below high-current gap %.3f", gap2, gap)
	}
}

func TestRecoveryEffect(t *testing.T) {
	u := newUnit(t, 1.0)
	for i := 0; i < 1800; i++ {
		u.Discharge(20, time.Second)
	}
	vSagged := u.TerminalVoltage()
	depleted := u.AvailableSoC()
	// Rest 30 minutes: bound charge diffuses back (capacity recovery).
	for i := 0; i < 1800; i++ {
		u.Rest(time.Second)
	}
	if got := u.AvailableSoC(); got <= depleted+0.02 {
		t.Errorf("no recovery: available SoC %.3f -> %.3f", depleted, got)
	}
	if v := u.TerminalVoltage(); v <= vSagged {
		t.Errorf("voltage did not rebound after rest: %v -> %v", vSagged, v)
	}
}

func TestDeliveryStopsWhenAvailableWellEmpty(t *testing.T) {
	u := newUnit(t, 0.1)
	var total units.AmpHour
	for i := 0; i < 7200; i++ {
		total += u.Discharge(30, time.Second)
	}
	capAh := float64(u.Params().CapacityAh)
	if float64(total) > 0.11*capAh+1 {
		t.Errorf("delivered %.2f Ah from a 10%% battery of %.0f Ah", float64(total), capAh)
	}
}

func TestChargeAcceptanceTaper(t *testing.T) {
	p := DefaultParams()
	if a := p.Acceptance(0.5); a != p.MaxChargeA {
		t.Errorf("bulk acceptance = %v, want %v", a, p.MaxChargeA)
	}
	if a := p.Acceptance(1.0); math.Abs(float64(a-p.FloatA)) > 1e-9 {
		t.Errorf("full acceptance = %v, want %v", a, p.FloatA)
	}
	mid := p.Acceptance(0.9)
	if mid >= p.MaxChargeA || mid <= p.FloatA {
		t.Errorf("taper acceptance %v not between float and max", mid)
	}
}

func TestChargeRaisesSoC(t *testing.T) {
	u := newUnit(t, 0.2)
	for i := 0; i < 3600; i++ {
		u.Charge(8, time.Second)
	}
	if got := u.SoC(); got < 0.35 {
		t.Errorf("1 h at 8 A raised SoC only to %.3f", got)
	}
	if u.SoC() > 1 {
		t.Errorf("SoC exceeded 1: %v", u.SoC())
	}
}

func TestChargeNeverExceedsFull(t *testing.T) {
	u := newUnit(t, 0.95)
	for i := 0; i < 4*3600; i++ {
		u.Charge(10, time.Second)
	}
	if got := u.SoC(); got > 1.0+1e-9 {
		t.Errorf("overcharged to SoC %v", got)
	}
}

func TestGassingOverheadDrawnEvenWhenFull(t *testing.T) {
	u := newUnit(t, 1.0)
	drawn := u.Charge(5, time.Second)
	if float64(drawn) < float64(u.Params().GassingA) {
		t.Errorf("full battery drew %v, expected at least gassing %v", drawn, u.Params().GassingA)
	}
}

// TestSequentialBeatsBatchCharging reproduces Fig 4a: with a limited power
// budget, charging units one by one completes substantially sooner than
// charging all simultaneously, because each connected unit pays the gassing
// overhead for as long as it sits on the charge bus.
func TestSequentialBeatsBatchCharging(t *testing.T) {
	const (
		n      = 3
		budget = units.Watt(150)
		target = 0.9
		maxSec = 200 * 3600
	)
	run := func(sequential bool) int {
		bank := MustNewBank(DefaultParams(), n, 0.2)
		for sec := 0; sec < maxSec; sec++ {
			var pending []int
			for i := 0; i < n; i++ {
				if bank.Unit(i).SoC() < target {
					pending = append(pending, i)
				}
			}
			if len(pending) == 0 {
				return sec
			}
			if sequential {
				pending = pending[:1]
			}
			bank.ChargeSet(pending, budget, time.Second)
			for i := 0; i < n; i++ {
				charged := false
				for _, j := range pending {
					if j == i {
						charged = true
					}
				}
				if !charged {
					bank.Unit(i).Rest(time.Second)
				}
			}
		}
		return maxSec
	}
	seq := run(true)
	batch := run(false)
	if seq >= batch {
		t.Fatalf("sequential (%d s) not faster than batch (%d s)", seq, batch)
	}
	saving := 1 - float64(seq)/float64(batch)
	if saving < 0.2 {
		t.Errorf("sequential saving %.1f%% below the paper's reported range", saving*100)
	}
	t.Logf("sequential %.1fh vs batch %.1fh (%.0f%% faster)", float64(seq)/3600, float64(batch)/3600, saving*100)
}

func TestWearAccounting(t *testing.T) {
	u := newUnit(t, 1.0)
	for i := 0; i < 3600; i++ {
		u.Discharge(10, time.Second)
	}
	if got := float64(u.RawOut()); math.Abs(got-10) > 0.1 {
		t.Errorf("raw throughput = %.2f Ah, want ~10", got)
	}
	if u.WearFraction() <= 0 {
		t.Error("wear fraction not accumulating")
	}
	if c := u.EquivalentCycles(); math.Abs(c-10.0/35) > 0.01 {
		t.Errorf("equivalent cycles = %.3f", c)
	}
}

func TestDeepDischargeWearPenalty(t *testing.T) {
	shallow := newUnit(t, 1.0)
	deep := newUnit(t, 0.2)
	for i := 0; i < 600; i++ {
		shallow.Discharge(5, time.Second)
		deep.Discharge(5, time.Second)
	}
	if deep.Throughput() <= shallow.Throughput() {
		t.Errorf("deep discharge wear %v not above shallow %v", deep.Throughput(), shallow.Throughput())
	}
}

func TestRemainingLife(t *testing.T) {
	u := newUnit(t, 1.0)
	life := u.RemainingLife(10)
	wantDays := float64(u.Params().LifetimeAh) / 10
	if math.Abs(life.Hours()/24-wantDays) > 0.5 {
		t.Errorf("remaining life = %.1f days, want %.1f", life.Hours()/24, wantDays)
	}
	if u.RemainingLife(0) <= 0 {
		t.Error("zero usage should mean effectively infinite life")
	}
}

func TestTerminalVoltageUnderLoad(t *testing.T) {
	u := newUnit(t, 0.9)
	rest := u.TerminalVoltage()
	u.Discharge(20, time.Second)
	loaded := u.TerminalVoltage()
	if loaded >= rest {
		t.Errorf("voltage under 20 A load (%v) not below rest (%v)", loaded, rest)
	}
	u2 := newUnit(t, 0.5)
	u2.Charge(8, time.Second)
	if u2.TerminalVoltage() <= u2.OCV() {
		t.Error("charging voltage should exceed OCV")
	}
}

func TestSoCInvariants(t *testing.T) {
	// Property: any sequence of charge/discharge/rest keeps SoC in [0,1]
	// and both wells non-negative.
	f := func(ops []uint8) bool {
		u := MustNew(DefaultParams(), 0.5)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				u.Discharge(units.Amp(float64(op%40)), time.Minute)
			case 1:
				u.Charge(units.Amp(float64(op%12)), time.Minute)
			case 2:
				u.Rest(time.Minute)
			}
			if s := u.SoC(); s < 0 || s > 1+1e-9 {
				return false
			}
			if a := u.AvailableSoC(); a < 0 || a > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSetSoC(t *testing.T) {
	u := newUnit(t, 0.1)
	u.SetSoC(0.8)
	if math.Abs(u.SoC()-0.8) > 1e-9 {
		t.Errorf("SetSoC: SoC = %v", u.SoC())
	}
	u.SetSoC(2)
	if u.SoC() > 1 {
		t.Error("SetSoC did not clamp")
	}
}

func TestBankAggregates(t *testing.T) {
	b := MustNewBank(DefaultParams(), 6, 0.5)
	if b.Size() != 6 {
		t.Fatalf("size = %d", b.Size())
	}
	if got := b.MeanSoC(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mean SoC = %v", got)
	}
	e := b.StoredEnergy()
	want := 6 * 0.5 * 35 * 12.0
	if math.Abs(float64(e)-want) > 1 {
		t.Errorf("stored energy = %v, want ~%v Wh", e, want)
	}
}

func TestBankDischargeSet(t *testing.T) {
	b := MustNewBank(DefaultParams(), 4, 0.9)
	got := b.DischargeSet([]int{0, 1}, 300, time.Minute)
	if got <= 0 {
		t.Fatal("no energy delivered")
	}
	if b.Unit(0).SoC() >= 0.9 || b.Unit(2).SoC() < 0.9 {
		t.Error("discharge touched the wrong units")
	}
	if b.DischargeSet(nil, 300, time.Minute) != 0 {
		t.Error("empty set should deliver nothing")
	}
}

func TestBankThroughputSpread(t *testing.T) {
	b := MustNewBank(DefaultParams(), 3, 1.0)
	for i := 0; i < 600; i++ {
		b.DischargeSet([]int{0}, 200, time.Second)
	}
	if b.ThroughputSpread() <= 0 {
		t.Error("spread should be positive after unbalanced use")
	}
	var none Bank
	if none.ThroughputSpread() != 0 {
		t.Error("empty bank spread should be 0")
	}
}

func TestBankChargeSetConsumesWithinBudget(t *testing.T) {
	b := MustNewBank(DefaultParams(), 3, 0.3)
	used := b.ChargeSet([]int{0, 1, 2}, 300, time.Second)
	if used <= 0 || used > 300+1 {
		t.Errorf("charge consumed %v from a 300 W budget", used)
	}
}

func TestDischargePanicsOnNegativeCurrent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newUnit(t, 0.5).Discharge(-1, time.Second)
}

func TestChargePanicsOnNegativeCurrent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newUnit(t, 0.5).Charge(-1, time.Second)
}

func TestCapacityFadeWithWear(t *testing.T) {
	u := newUnit(t, 1.0)
	fresh := float64(u.EffectiveCapacity())
	// Cycle the unit hard: discharge/charge for many full-capacity swings.
	for cycle := 0; cycle < 40; cycle++ {
		for i := 0; i < 3*3600; i++ {
			u.Discharge(8, time.Second)
		}
		for i := 0; i < 4*3600; i++ {
			u.Charge(10, time.Second)
		}
	}
	aged := float64(u.EffectiveCapacity())
	if aged >= fresh {
		t.Fatalf("no fade after heavy cycling: %.2f -> %.2f Ah", fresh, aged)
	}
	// Fade must be proportional to wear fraction.
	wantFade := u.Params().FadeAtEOL * u.WearFraction()
	gotFade := 1 - aged/float64(u.Params().CapacityAh)
	if math.Abs(gotFade-wantFade) > 0.01 {
		t.Errorf("fade %.3f, want %.3f from wear %.3f", gotFade, wantFade, u.WearFraction())
	}
}

func TestFadeDisabledWhenZero(t *testing.T) {
	p := DefaultParams()
	p.FadeAtEOL = 0
	u := MustNew(p, 1.0)
	for i := 0; i < 3600; i++ {
		u.Discharge(10, time.Second)
	}
	if got := float64(u.EffectiveCapacity()); got != float64(p.CapacityAh) {
		t.Errorf("capacity %.2f changed with fade disabled", got)
	}
}

func TestInjectCapacityLoss(t *testing.T) {
	u := newUnit(t, 0.9)
	healthy := newUnit(t, 0.9)
	vBefore := u.TerminalVoltage()
	u.InjectCapacityLoss(0.6)
	if !u.Failed() {
		t.Fatal("faulted unit reports healthy")
	}
	// Effective capacity shrinks by the lost fraction.
	want := 0.4 * float64(healthy.EffectiveCapacity())
	if got := float64(u.EffectiveCapacity()); math.Abs(got-want) > 0.01 {
		t.Errorf("effective capacity %.2f Ah, want %.2f", got, want)
	}
	// The stored charge collapses faster than the capacity, so SoC and
	// terminal voltage drop observably — this is what the control plane's
	// fault detector keys on.
	if u.SoC() >= 0.9*0.5 {
		t.Errorf("SoC %.3f did not collapse after 60%% capacity loss", u.SoC())
	}
	if u.TerminalVoltage() >= vBefore-0.1 {
		t.Errorf("terminal voltage %.2f barely moved from %.2f", u.TerminalVoltage(), vBefore)
	}
	if healthy.Failed() {
		t.Error("healthy unit reports failed")
	}
}

func TestInjectCapacityLossCompounds(t *testing.T) {
	u := newUnit(t, 1.0)
	u.InjectCapacityLoss(0.5)
	u.InjectCapacityLoss(0.5)
	// Two 50% losses compound to 75%, not 100%.
	want := 0.25 * float64(u.Params().CapacityAh)
	if got := float64(u.EffectiveCapacity()); math.Abs(got-want) > 0.01 {
		t.Errorf("compounded capacity %.2f Ah, want %.2f", got, want)
	}
	u.InjectCapacityLoss(0) // no-op, not a repair
	if !u.Failed() {
		t.Error("zero-fraction injection cleared the fault")
	}
	if s := u.SoC(); s < 0 || s > 1+1e-9 {
		t.Errorf("SoC %.3f out of range after fault", s)
	}
}

func TestBankChargeDischargeRoundTripProperty(t *testing.T) {
	// Property: random sequences of bank operations keep every unit's SoC
	// in [0,1], keep throughput monotone non-decreasing, and never create
	// charge out of nothing (energy out <= energy in + initial store).
	f := func(ops []uint16) bool {
		bank := MustNewBank(DefaultParams(), 4, 0.6)
		initial := float64(bank.StoredEnergy())
		var inWh, outWh float64
		prevThroughput := 0.0
		for _, op := range ops {
			idx := []int{int(op % 4)}
			power := units.Watt(float64(op%600) + 1)
			switch (op / 4) % 3 {
			case 0:
				used := bank.ChargeSet(idx, power, time.Minute)
				inWh += float64(units.Energy(used, time.Minute))
			case 1:
				outWh += float64(bank.DischargeSet(idx, power, time.Minute))
			default:
				bank.RestAll(time.Minute)
			}
			for _, u := range bank.Units() {
				if s := u.SoC(); s < 0 || s > 1+1e-9 {
					return false
				}
			}
			tp := float64(bank.TotalThroughput())
			if tp < prevThroughput {
				return false
			}
			prevThroughput = tp
		}
		final := float64(bank.StoredEnergy())
		// Conservation with losses: what came out plus what remains can
		// never exceed what went in plus the initial store (tolerance for
		// the nominal-voltage energy approximation).
		return outWh+final <= initial+inWh+initial*0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
