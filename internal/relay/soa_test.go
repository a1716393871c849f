package relay

import (
	"testing"
	"time"
)

// Pins for the structure-of-arrays contact store: the batch tick must
// preserve the documented relay ordering and stay allocation-free.

func TestFabricTickSettleOrderUnchanged(t *testing.T) {
	f := NewFabric(2)
	// Drain the initial parallel-topology settles.
	f.Tick(SwitchTime)

	var order []string
	hook := func(r *Relay) {
		r.OnSettle = func(time.Duration) { order = append(order, r.Name()) }
	}
	for i := 0; i < f.Size(); i++ {
		hook(f.Pair(i).Charge)
		hook(f.Pair(i).Discharge)
	}
	hook(f.P1)
	hook(f.P2)
	hook(f.P3)

	f.Pair(0).SetMode(Charging)
	f.Pair(1).SetMode(Discharging)
	f.SetSeries()
	f.Tick(SwitchTime)

	want := []string{"bat0-CR", "bat1-DR", "P1", "P2", "P3"}
	if len(order) != len(want) {
		t.Fatalf("settle order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("settle order %v, want %v", order, want)
		}
	}
}

func TestFabricTickAllocFree(t *testing.T) {
	f := NewFabric(8)
	f.Pair(0).SetMode(Charging)
	if n := testing.AllocsPerRun(1000, func() {
		f.Tick(time.Second)
	}); n != 0 {
		t.Fatalf("Fabric.Tick allocates %.1f times per call, want 0", n)
	}
}
