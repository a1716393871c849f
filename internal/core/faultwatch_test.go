package core

import (
	"strings"
	"testing"
	"time"

	"insure/internal/faults"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// wireInjector hooks a fault plan into the live plant's tick loop.
func wireInjector(t *testing.T, sys *sim.System, spec string) *faults.Injector {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.NewInjector(plan, faults.Target{Panel: sys.Panel})
	sys.SetTickHook(func(tod time.Duration) { in.Tick(tod) })
	return in
}

func TestHealthyRunNeverQuarantines(t *testing.T) {
	// The detector thresholds are chosen so no healthy plant can trip them;
	// a false positive here would silently shrink the bank.
	for name, tr := range map[string]*trace.Trace{
		"high":   trace.FullSystemHigh(),
		"low":    trace.FullSystemLow(),
		"cloudy": trace.Synthesize(solar.Cloudy, 2015, time.Second),
		"rainy":  trace.Synthesize(solar.Rainy, 2015, time.Second),
	} {
		sys := newSystem(t, tr, sim.NewSeismicSink())
		m := New(DefaultConfig(), 6)
		sys.Run(m)
		if n := m.QuarantinedCount(); n != 0 {
			t.Errorf("%s-solar day: %d healthy units quarantined: %v",
				name, n, m.FaultEvents())
		}
	}
}

func TestBatteryFailureIsQuarantinedMidday(t *testing.T) {
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	wireInjector(t, sys, "bat:2@12h30m:0.6")
	res := sys.Run(m)

	ev := m.FaultEvents()
	if len(ev) != 1 {
		t.Fatalf("fault events = %v, want exactly one", ev)
	}
	if ev[0].Unit != 2 || !strings.Contains(ev[0].Reason, "battery") {
		t.Errorf("event = %+v, want a battery failure on unit 2", ev[0])
	}
	if ev[0].At < 12*time.Hour+30*time.Minute || ev[0].At > 12*time.Hour+40*time.Minute {
		t.Errorf("detected at %v, want within minutes of the 12h30m injection", ev[0].At)
	}
	if m.Groups()[2] != GroupOffline {
		t.Error("faulted unit not moved to Offline")
	}
	if !m.Quarantined()[2] {
		t.Error("unit 2 not flagged quarantined")
	}
	// Graceful degradation: the remaining five units keep the day alive.
	if res.Brownouts != 0 {
		t.Errorf("%d brownouts after losing one unit on a high-solar day", res.Brownouts)
	}
	if res.UptimeFrac < 0.9 {
		t.Errorf("uptime %.2f after one battery failure, want near-continuous", res.UptimeFrac)
	}

	// Quarantine is permanent: later screening passes (including the
	// offline-boost path) must not re-admit the unit.
	for tod := 21 * time.Hour; tod < 22*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
	}
	if m.Groups()[2] != GroupOffline {
		t.Error("quarantined unit re-admitted by a later screening pass")
	}
	if got := m.FaultEvents(); len(got) != 1 {
		t.Errorf("quarantine re-fired: %v", got)
	}
}

func TestVoltageDriftIsQuarantined(t *testing.T) {
	// A drifted voltage transducer pushes the reading outside the physically
	// reachable OCV band; detection needs no particular schedule state.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	wireInjector(t, sys, "drift:1@11h:1.5")
	sys.Run(m)

	ev := m.FaultEvents()
	if len(ev) != 1 {
		t.Fatalf("fault events = %v, want exactly one", ev)
	}
	if ev[0].Unit != 1 || !strings.Contains(ev[0].Reason, "voltage") {
		t.Errorf("event = %+v, want a voltage-transducer fault on unit 1", ev[0])
	}
	if ev[0].At < 11*time.Hour || ev[0].At > 11*time.Hour+5*time.Minute {
		t.Errorf("detected at %v, want within minutes of the 11h injection", ev[0].At)
	}
	if m.Groups()[1] != GroupOffline {
		t.Error("drifted unit not moved to Offline")
	}
}

func TestStuckOpenRelayIsQuarantined(t *testing.T) {
	// A discharge relay that never closes leaves its unit commanded into the
	// discharge set but carrying no current; the fabric splits the deficit
	// over the relays that actually closed, so the bus holds while the
	// detector catches the dead unit.
	sys := newSystem(t, trace.FullSystemLow(), sim.NewVideoSink())
	m := New(DefaultConfig(), 6)
	wireInjector(t, sys, "relay-open:0@8h")
	res := sys.Run(m)

	ev := m.FaultEvents()
	if len(ev) != 1 {
		t.Fatalf("fault events = %v, want exactly one", ev)
	}
	if ev[0].Unit != 0 || !strings.Contains(ev[0].Reason, "relay") {
		t.Errorf("event = %+v, want a stuck-open relay on unit 0", ev[0])
	}
	if m.Groups()[0] != GroupOffline {
		t.Error("stuck unit not moved to Offline")
	}
	if res.UptimeFrac <= 0 {
		t.Error("plant lost all availability to one stuck relay")
	}
}
