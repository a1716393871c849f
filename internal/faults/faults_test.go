package faults

import (
	"strings"
	"testing"
	"time"

	"insure/internal/battery"
	"insure/internal/plc"
	"insure/internal/relay"
)

func testTarget(n int) Target {
	p, err := plc.NewPanel(battery.MustNewBank(battery.DefaultParams(), n, 0.8))
	if err != nil {
		panic(err)
	}
	return Target{Panel: p}
}

func TestParse(t *testing.T) {
	plan, err := Parse("bat:2@12h30m,relay-open:4@13h,stick:0@10h,drift:1@11h:0.25,drop@14h")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 5 {
		t.Fatalf("parsed %d events, want 5", len(plan))
	}
	// Sorted by time.
	for i := 1; i < len(plan); i++ {
		if plan[i].At < plan[i-1].At {
			t.Fatalf("plan not sorted: %v", plan)
		}
	}
	if plan[0].Kind != SensorStick || plan[0].Unit != 0 || plan[0].At != 10*time.Hour {
		t.Errorf("first event = %v", plan[0])
	}
	if plan[1].Kind != SensorDrift || plan[1].Magnitude != 0.25 {
		t.Errorf("drift event = %v", plan[1])
	}
	// Defaults fill in.
	if plan[2].Kind != BatteryFail || plan[2].Magnitude != 0.6 {
		t.Errorf("bat event = %v, want default 0.6 loss", plan[2])
	}
	if plan[4].Kind != PanelDrop {
		t.Errorf("last event = %v", plan[4])
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ","} {
		plan, err := Parse(spec)
		if err != nil || len(plan) != 0 {
			t.Errorf("Parse(%q) = %v, %v", spec, plan, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   "explode:0@12h",
		"missing time":   "bat:2",
		"missing unit":   "bat@12h",
		"bad unit":       "bat:x@12h",
		"negative unit":  "bat:-1@12h",
		"bad time":       "bat:0@noon",
		"negative time":  "bat:0@-1h",
		"bad magnitude":  "bat:0@12h:lots",
		"zero magnitude": "bat:0@12h:0",
		"loss above one": "bat:0@12h:1.5",
		"drop with unit": "drop:2@12h",
	}
	for name, spec := range cases {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%s: Parse(%q) accepted", name, spec)
		}
	}
}

// TestPlanCheckUnits checks the CLIs' startup check: an event naming a unit
// outside the bank is refused by name, while drop, which takes no unit,
// passes against any bank.
func TestPlanCheckUnits(t *testing.T) {
	plan, err := Parse("bat:9@1s,relay-open:7@1s")
	if err != nil {
		t.Fatal(err)
	}
	err = plan.CheckUnits(6)
	if err == nil || !strings.Contains(err.Error(), "bat:9@1s") {
		t.Errorf("CheckUnits(6) = %v, want an error naming bat:9@1s", err)
	}
	plan, err = Parse("stick:0@1s,drift:5@2s,relay-weld:5@3s,drop@4s")
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckUnits(6); err != nil {
		t.Errorf("in-range plan refused: %v", err)
	}
	if err := plan.CheckUnits(5); err == nil || !strings.Contains(err.Error(), "drift:5@2s") {
		t.Errorf("CheckUnits(5) = %v, want an error naming drift:5@2s", err)
	}
	if err := (Plan{{At: time.Second, Kind: PanelDrop}}).CheckUnits(0); err != nil {
		t.Errorf("drop refused: %v", err)
	}
}

func TestInjectorAppliesOnSchedule(t *testing.T) {
	tgt := testTarget(6)
	plan, err := Parse("bat:2@12h:0.5,relay-open:4@13h,stick:0@10h,drift:1@11h")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(plan, tgt)

	if n := in.Tick(9 * time.Hour); n != 0 {
		t.Fatalf("%d events landed before schedule", n)
	}
	if tgt.Panel.Probes[0].Current.Faulted() {
		t.Fatal("stick applied early")
	}
	if n := in.Tick(10 * time.Hour); n != 1 {
		t.Fatalf("tick at 10h injected %d events, want 1", n)
	}
	if !tgt.Panel.Probes[0].Current.Faulted() {
		t.Error("stick not applied at its time")
	}
	// A big jump injects everything due, in order.
	if n := in.Tick(13 * time.Hour); n != 3 {
		t.Fatalf("tick at 13h injected %d events, want 3", n)
	}
	if !tgt.Panel.Probes[1].Volt.Faulted() {
		t.Error("drift not applied")
	}
	if !tgt.Panel.Bank.Unit(2).Failed() {
		t.Error("battery fault not applied")
	}
	if got := tgt.Panel.Fabric.Pair(4).Discharge.FailState(); got != relay.FailStuckOpen {
		t.Errorf("discharge relay fail state = %v", got)
	}
	if !in.Done() {
		t.Error("injector not done after all events")
	}
	// Re-ticking injects nothing and stays allocation-free.
	if n := in.Tick(20 * time.Hour); n != 0 {
		t.Errorf("re-tick injected %d events", n)
	}
	if got := len(in.Applied()); got != 4 {
		t.Errorf("applied = %d events, want 4", got)
	}
}

func TestInjectorOutOfRangeUnitsAreNoOps(t *testing.T) {
	tgt := testTarget(2)
	in := NewInjector(Plan{
		{At: time.Hour, Kind: BatteryFail, Unit: 9},
		{At: time.Hour, Kind: RelayWeldClosed, Unit: 9},
		{At: time.Hour, Kind: SensorStick, Unit: 9},
		{At: time.Hour, Kind: PanelDrop}, // nil server
	}, tgt)
	if n := in.Tick(2 * time.Hour); n != 4 {
		t.Fatalf("injected %d, want 4 (as no-ops)", n)
	}
	for i := 0; i < 2; i++ {
		if tgt.Panel.Bank.Unit(i).Failed() || tgt.Panel.Fabric.Pair(i).Failed() {
			t.Error("out-of-range fault hit a real unit")
		}
	}
}

type dropCounter struct{ n int }

func (d *dropCounter) DropConnections() { d.n++ }

func TestInjectorPanelDrop(t *testing.T) {
	tgt := testTarget(1)
	srv := &dropCounter{}
	tgt.Server = srv
	in := NewInjector(Plan{{At: time.Hour, Kind: PanelDrop}}, tgt)
	in.Tick(time.Hour)
	if srv.n != 1 {
		t.Errorf("panel dropped %d times, want 1", srv.n)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	plan, err := Parse("bat:1@12h,relay-open:0@13h")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Event {
		in := NewInjector(plan, testTarget(2))
		for tod := time.Duration(0); tod < 24*time.Hour; tod += time.Minute {
			in.Tick(tod)
		}
		return in.Applied()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 12 * time.Hour, Kind: BatteryFail, Unit: 2, Magnitude: 0.6}
	if got := e.String(); got != "bat:2@12h0m0s:0.6" {
		t.Errorf("event string = %q", got)
	}
	if got := (Event{At: time.Hour, Kind: PanelDrop}).String(); got != "drop@1h0m0s" {
		t.Errorf("drop string = %q", got)
	}
}
