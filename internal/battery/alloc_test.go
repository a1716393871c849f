package battery

import (
	"testing"
	"time"

	"insure/internal/units"
)

// The KiBaM step functions sit inside the simulation's per-tick loop; these
// pins keep them allocation-free so the zero-alloc tick invariant (see
// DESIGN.md's performance notes) cannot silently regress.

func TestDischargeAllocFree(t *testing.T) {
	u := MustNew(DefaultParams(), 1.0)
	if n := testing.AllocsPerRun(1000, func() {
		u.Discharge(4, time.Second)
		if u.SoC() < 0.2 {
			u.SetSoC(1.0)
		}
	}); n != 0 {
		t.Fatalf("Unit.Discharge allocates %.1f times per call, want 0", n)
	}
}

func TestChargeAllocFree(t *testing.T) {
	u := MustNew(DefaultParams(), 0.2)
	if n := testing.AllocsPerRun(1000, func() {
		u.Charge(8, time.Second)
		if u.SoC() > 0.95 {
			u.SetSoC(0.2)
		}
	}); n != 0 {
		t.Fatalf("Unit.Charge allocates %.1f times per call, want 0", n)
	}
}

func TestRestAllocFree(t *testing.T) {
	u := MustNew(DefaultParams(), 0.6)
	u.Discharge(8, time.Minute)
	if n := testing.AllocsPerRun(1000, func() {
		u.Rest(time.Second)
	}); n != 0 {
		t.Fatalf("Unit.Rest allocates %.1f times per call, want 0", n)
	}
}

func TestBankSetStepsAllocFree(t *testing.T) {
	b := MustNewBank(DefaultParams(), 6, 0.7)
	dis := []int{0, 1, 2}
	chg := []int{3, 4}
	if n := testing.AllocsPerRun(1000, func() {
		b.DischargeSet(dis, 300, time.Second)
		b.ChargeSet(chg, units.Watt(400), time.Second)
	}); n != 0 {
		t.Fatalf("Bank charge/discharge step allocates %.1f times per call, want 0", n)
	}
}

func TestBankRestAllAllocFree(t *testing.T) {
	b := MustNewBank(DefaultParams(), 8, 0.7)
	workBank(b, 3)
	if n := testing.AllocsPerRun(1000, func() {
		b.RestAll(time.Second)
	}); n != 0 {
		t.Fatalf("Bank.RestAll allocates %.1f times per call, want 0", n)
	}
}
