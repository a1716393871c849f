package battery

import (
	"testing"
	"time"

	"insure/internal/units"
)

// These tests pin the structure-of-arrays contract: a bank stepped through
// the batch kernels must be BIT-identical — not merely close — to a bank
// stepped unit by unit in the same order. The campaign determinism oracle
// rests on this.

// churn drives a bank through a deterministic mixed workload: staggered
// discharges, charges, and rests with per-unit current variation.
func churn(b *Bank, steps int) {
	for s := 0; s < steps; s++ {
		for i := 0; i < b.Size(); i++ {
			u := b.Unit(i)
			switch (s + i) % 4 {
			case 0:
				u.Discharge(units.Amp(2+float64(i)*0.75), 30*time.Second)
			case 1:
				u.Charge(units.Amp(4+float64(s%3)), 30*time.Second)
			case 2:
				u.Rest(30 * time.Second)
			case 3:
				u.Discharge(units.Amp(6), 15*time.Second)
				u.Rest(15 * time.Second)
			}
		}
	}
}

func statesEqual(t *testing.T, got, want []UnitState, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d unit states, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: unit %d state diverged:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

func TestBankRestAllBatchMatchesPerUnit(t *testing.T) {
	p := DefaultParams()
	batch := MustNewBank(p, 5, 0.8)
	loop := MustNewBank(p, 5, 0.8)

	// Put both banks in an identical non-equilibrium state so Rest has
	// real inter-well diffusion to integrate.
	churn(batch, 7)
	churn(loop, 7)

	for s := 0; s < 200; s++ {
		batch.RestAll(time.Second) // whole-store batch kernel
		for i := 0; i < loop.Size(); i++ {
			loop.Unit(i).Rest(time.Second) // per-unit path
		}
	}
	statesEqual(t, batch.State(), loop.State(), "RestAll batch vs per-unit")
}

func TestSoARestAllAllocFree(t *testing.T) {
	b := MustNewBank(DefaultParams(), 8, 0.7)
	churn(b, 3)
	if n := testing.AllocsPerRun(1000, func() {
		b.RestAll(time.Second)
	}); n != 0 {
		t.Fatalf("Bank.RestAll allocates %.1f times per call, want 0", n)
	}
}
