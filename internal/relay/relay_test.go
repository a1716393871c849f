package relay

import (
	"reflect"
	"testing"
	"time"
)

func TestRelaySetCounting(t *testing.T) {
	r := New("test")
	if r.Closed() {
		t.Fatal("new relay should be open")
	}
	r.Set(true)
	r.Set(true) // no-op
	r.Tick(SwitchTime)
	r.Set(false)
	if got := r.Cycles(); got != 2 {
		t.Errorf("cycles = %d, want 2", got)
	}
}

func TestRelaySettling(t *testing.T) {
	r := New("test")
	r.Set(true)
	if r.Settled() {
		t.Error("relay settled instantly")
	}
	r.Tick(SwitchTime)
	if !r.Settled() {
		t.Error("relay not settled after switch time")
	}
}

func TestRelayWearFraction(t *testing.T) {
	r := New("test")
	for i := 0; i < 100; i++ {
		r.Set(i%2 == 0)
	}
	if w := r.WearFraction(); w <= 0 || w >= 1e-3 {
		t.Errorf("wear fraction = %v", w)
	}
}

func TestPairInterlock(t *testing.T) {
	p := NewPair(0)
	p.SetMode(Charging)
	if p.Mode() != Charging {
		t.Fatalf("mode = %v, want charging", p.Mode())
	}
	p.SetMode(Discharging)
	if p.Charge.Closed() {
		t.Error("charge relay still closed while discharging")
	}
	if p.Mode() != Discharging {
		t.Errorf("mode = %v, want discharging", p.Mode())
	}
	p.SetMode(Open)
	if p.Charge.Closed() || p.Discharge.Closed() {
		t.Error("open mode left a relay closed")
	}
}

func TestPairDoubleClosedFailsSafe(t *testing.T) {
	p := NewPair(0)
	p.Charge.Set(true)
	p.Discharge.Set(true) // fault injection: wedged fabric
	if p.Mode() != Open {
		t.Errorf("double-closed pair reported %v, want fail-safe open", p.Mode())
	}
}

// TestFabricAppendByMode checks the one-pass split for every mode, with a
// double-closed pair (a welded charge contact beside a closed discharge
// contact) counted as open, and pins the pass at zero allocations into
// reused slices.
func TestFabricAppendByMode(t *testing.T) {
	f := NewFabric(5)
	f.Pair(0).SetMode(Charging)
	f.Pair(2).SetMode(Discharging)
	f.Pair(3).SetMode(Discharging)
	f.Pair(4).Charge.Fail(FailWeldClosed)
	f.Pair(4).Discharge.Set(true)
	open, charging, discharging := make([]int, 0, 5), make([]int, 0, 5), make([]int, 0, 5)
	open, charging, discharging = f.AppendByMode(open, charging, discharging)
	for _, tc := range []struct {
		m    Mode
		got  []int
		want []int
	}{
		{Open, open, []int{1, 4}},
		{Charging, charging, []int{0}},
		{Discharging, discharging, []int{2, 3}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%v units = %v, want %v", tc.m, tc.got, tc.want)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		open, charging, discharging = f.AppendByMode(open[:0], charging[:0], discharging[:0])
	}); a != 0 {
		t.Errorf("AppendByMode allocates %.2f times per call, want 0", a)
	}
}

// TestFabricCycleAccounting counts every pair contact's cycles from a
// fresh fabric, which has moved no relay.
func TestFabricCycleAccounting(t *testing.T) {
	f := NewFabric(3)
	if got := f.TotalCycles(); got != 0 {
		t.Errorf("fresh fabric cycles = %d, want 0", got)
	}
	f.Pair(0).SetMode(Charging)
	f.Tick(time.Second) // settle before the next command
	f.Pair(0).SetMode(Open)
	if got := f.TotalCycles(); got != 2 {
		t.Errorf("cycles = %d, want 2", got)
	}
}

func TestFabricTick(t *testing.T) {
	f := NewFabric(2)
	f.Pair(1).SetMode(Discharging)
	f.Tick(time.Second)
	if !f.Pair(1).Discharge.Settled() {
		t.Error("relay did not settle after tick")
	}
}

func TestTickClampsPendingAtZero(t *testing.T) {
	r := New("test")
	r.Set(true)
	r.Tick(time.Second) // far past the 25 ms switch time
	if !r.Settled() {
		t.Fatal("relay not settled after a full second")
	}
	if got := r.SettleRemaining(); got != 0 {
		t.Errorf("pending drifted to %v after overshoot tick, want exactly 0", got)
	}
	// Repeated ticks must not accumulate negative balance either.
	r.Tick(time.Second)
	r.Tick(time.Second)
	if got := r.SettleRemaining(); got != 0 {
		t.Errorf("pending = %v after repeated ticks, want 0", got)
	}
}

func TestAbortedSwitchCountsTowardWear(t *testing.T) {
	r := New("test")
	r.Set(true)
	r.Tick(10 * time.Millisecond) // still in flight (25 ms switch time)
	r.Set(false)                  // reverses mid-travel: aborts the transition
	if got := r.Aborted(); got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
	// The aborted transition consumed a mechanical cycle on top of the two
	// commanded ones.
	if got := r.Cycles(); got != 3 {
		t.Errorf("cycles = %d, want 3 (two commands + one abort)", got)
	}
	// A settled switch followed by a reversal is not an abort.
	r.Tick(SwitchTime)
	r.Set(true)
	if got := r.Aborted(); got != 1 {
		t.Errorf("settled reversal counted as abort: %d", got)
	}
}

func TestRelayFailWeldClosed(t *testing.T) {
	r := New("test")
	r.Set(true)
	r.Tick(SwitchTime)
	r.Fail(FailWeldClosed)
	if !r.Failed() || r.FailState() != FailWeldClosed {
		t.Fatal("fault not recorded")
	}
	r.Set(false)
	if !r.Closed() {
		t.Error("welded contact opened on command")
	}
	r.Fail(FailNone)
	r.Set(false)
	if r.Closed() {
		t.Error("repaired relay ignored open command")
	}
}

func TestRelayFailStuckOpen(t *testing.T) {
	r := New("test")
	r.Fail(FailStuckOpen)
	r.Set(true)
	if r.Closed() {
		t.Error("stuck armature closed on command")
	}
	if !r.Settled() {
		t.Error("stuck-open relay should not report an in-flight switch")
	}
	if FailWeldClosed.String() == "" || FailStuckOpen.String() == "" || FailNone.String() != "none" {
		t.Error("fail mode names wrong")
	}
}

func TestPairFailed(t *testing.T) {
	p := NewPair(0)
	if p.Failed() {
		t.Fatal("healthy pair reports failed")
	}
	p.Discharge.Fail(FailStuckOpen)
	if !p.Failed() {
		t.Error("pair with a faulted relay reports healthy")
	}
}

func TestModeString(t *testing.T) {
	if Open.String() != "open" || Charging.String() != "charging" || Discharging.String() != "discharging" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should format")
	}
}

func TestFabricTickSettleOrderUnchanged(t *testing.T) {
	f := NewFabric(2)

	var order []string
	hook := func(r *Relay) {
		r.OnSettle = func(time.Duration) { order = append(order, r.Name()) }
	}
	for i := 0; i < f.Size(); i++ {
		hook(f.Pair(i).Charge)
		hook(f.Pair(i).Discharge)
	}

	f.Pair(0).SetMode(Charging)
	f.Pair(1).SetMode(Discharging)
	f.Tick(SwitchTime)

	want := []string{"bat0-CR", "bat1-DR"}
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
