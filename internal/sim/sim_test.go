package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/trace"
	"insure/internal/units"
	"insure/internal/workload"
)

// idleManager leaves everything alone — useful for plant-only physics.
type idleManager struct{}

func (idleManager) Name() string          { return "idle" }
func (idleManager) Period() time.Duration { return 30 * time.Second }
func (idleManager) Control(*System, time.Duration) {
}

// chargeAllManager closes every charging relay and never starts servers.
type chargeAllManager struct{}

func (chargeAllManager) Name() string          { return "charge-all" }
func (chargeAllManager) Period() time.Duration { return 30 * time.Second }
func (chargeAllManager) Control(s *System, _ time.Duration) {
	for i := 0; i < s.Bank.Size(); i++ {
		s.SetUnitMode(i, relay.Charging)
	}
	s.PLC.ScanNow()
}

func newTestSystem(t *testing.T, tr *trace.Trace) *System {
	t.Helper()
	cfg := DefaultConfig(tr)
	cfg.RecordEvery = 5 * time.Minute
	sys, err := New(cfg, NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewRejectsBadBattery(t *testing.T) {
	cfg := DefaultConfig(trace.FullSystemHigh())
	cfg.BatteryCount = 0
	if _, err := New(cfg, NewSeismicSink()); err == nil {
		t.Error("zero batteries accepted")
	}
}

// TestNewUnitCap checks the bank bound: 48 units is the largest bank the
// PLC register map addresses, each unit's codes landing in its own
// registers, and a 49th unit, whose codes would overwrite the solar-power
// register, is refused.
func TestNewUnitCap(t *testing.T) {
	cfg := DefaultConfig(trace.FullSystemHigh())
	cfg.BatteryCount = plc.MaxUnits
	sys, err := New(cfg, NewSeismicSink())
	if err != nil {
		t.Fatalf("%d-unit bank refused: %v", plc.MaxUnits, err)
	}
	last := plc.MaxUnits - 1
	img, err := sys.PLC.Regs.ReadInput(plc.InputVolt(last), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := sys.Probes[last]; img[0] != p.Volt.Raw() || img[1] != p.Current.Raw() {
		t.Errorf("unit %d registers %v, probe codes %d/%d", last, img, p.Volt.Raw(), p.Current.Raw())
	}
	cfg.BatteryCount = plc.MaxUnits + 1
	if _, err := New(cfg, NewSeismicSink()); err == nil {
		t.Errorf("%d-unit bank accepted", plc.MaxUnits+1)
	}
}

func TestPLCPrimedAtConstruction(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	v, _ := sys.UnitReading(0)
	if v < 11 || v > 14 {
		t.Errorf("first reading %v implausible — registers not primed", v)
	}
}

func TestSolarChargesBatteriesUnderChargeAll(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	before := sys.Bank.MeanSoC()
	for tod := 9 * time.Hour; tod < 12*time.Hour; tod += time.Second {
		sys.Tick(tod, chargeAllManager{})
	}
	if after := sys.Bank.MeanSoC(); after <= before+0.1 {
		t.Errorf("midday sun barely charged the bank: %.2f -> %.2f", before, after)
	}
}

func TestIdleManagerCurtailsEverything(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	for tod := 9 * time.Hour; tod < 11*time.Hour; tod += time.Second {
		sys.Tick(tod, idleManager{})
	}
	res := sys.result(idleManager{})
	if res.CurtailedKWh <= 0 {
		t.Error("no curtailment with all relays open and no load")
	}
	if res.HarvestedKWh > 0.001 {
		t.Errorf("harvested %v kWh with nowhere for it to go", res.HarvestedKWh)
	}
}

// loadOnlyManager runs servers with no battery backing: deficits must trip
// the brownout path once the hold-up expires.
type loadOnlyManager struct{ started bool }

func (m *loadOnlyManager) Name() string          { return "load-only" }
func (m *loadOnlyManager) Period() time.Duration { return 30 * time.Second }
func (m *loadOnlyManager) Control(s *System, _ time.Duration) {
	if !m.started {
		m.started = true
		s.Cluster.SetTargetVMs(8)
	} else if s.Cluster.TargetVMs() == 0 {
		s.Cluster.SetTargetVMs(8) // stubbornly restart after shutdown
	}
}

func TestBrownoutOnUnbackedDeficit(t *testing.T) {
	// Evening trace: almost no solar, 8 VMs demanded, no batteries online.
	sys := newTestSystem(t, trace.FullSystemLow())
	mgr := &loadOnlyManager{}
	for tod := 18 * time.Hour; tod < 19*time.Hour+30*time.Minute; tod += time.Second {
		sys.Tick(tod, mgr)
	}
	if sys.Brownouts() == 0 {
		t.Error("no brownout despite sustained unbacked deficit")
	}
}

func TestHoldUpRidesThroughShortDips(t *testing.T) {
	cfg := DefaultConfig(trace.FullSystemHigh())
	cfg.HoldUp = 2 * time.Minute
	sys, err := New(cfg, NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mgr := &loadOnlyManager{}
	// One minute of deficit < 2 min hold-up: no brownout.
	for tod := 18 * time.Hour; tod < 18*time.Hour+time.Minute; tod += time.Second {
		sys.Tick(tod, mgr)
	}
	if sys.Brownouts() != 0 {
		t.Errorf("brownout fired inside hold-up window: %d", sys.Brownouts())
	}
}

func TestRecorderCaptures(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	for tod := 9 * time.Hour; tod < 10*time.Hour; tod += time.Second {
		sys.Tick(tod, chargeAllManager{})
	}
	frames := sys.Recorder().Frames()
	if len(frames) < 10 {
		t.Fatalf("only %d frames after an hour at 5-minute sampling", len(frames))
	}
	f := frames[len(frames)-1]
	if len(f.Volts) != 6 || len(f.SoCs) != 6 || len(f.Modes) != 6 {
		t.Error("frame missing per-unit series")
	}
	if f.Solar <= 0 {
		t.Error("frame missing solar sample")
	}
	if f.Modes[0] != relay.Charging {
		t.Errorf("mode = %v, want charging", f.Modes[0])
	}
}

func TestSetUnitModeThroughPLC(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	sys.SetUnitMode(2, relay.Discharging)
	sys.PLC.ScanNow()
	if got := sys.Fabric.Pair(2).Mode(); got != relay.Discharging {
		t.Errorf("fabric mode = %v after coil write + scan", got)
	}
	sys.SetUnitMode(2, relay.Open)
	sys.PLC.ScanNow()
	if got := sys.Fabric.Pair(2).Mode(); got != relay.Open {
		t.Errorf("fabric mode = %v, want open", got)
	}
}

func TestInterlockRefusesDoubleClose(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	// Write both coils directly (a buggy/hostile coordinator).
	_ = sys.PLC.Regs.WriteCoil(0, true)
	_ = sys.PLC.Regs.WriteCoil(1, true)
	sys.PLC.ScanNow()
	if got := sys.Fabric.Pair(0).Mode(); got != relay.Open {
		t.Errorf("interlock failed: mode = %v", got)
	}
}

func TestInWindow(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	if sys.InWindow(7 * time.Hour) {
		t.Error("7:00 inside the 8:00 window")
	}
	if !sys.InWindow(12 * time.Hour) {
		t.Error("noon outside window")
	}
	if sys.InWindow(19*time.Hour + 45*time.Minute) {
		t.Error("19:45 inside the 19:30-ending window")
	}
}

func TestResultAccounting(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	res := sys.Run(chargeAllManager{})
	if res.Manager != "charge-all" {
		t.Errorf("manager name = %q", res.Manager)
	}
	if res.Workload != "seismic" {
		t.Errorf("workload = %q", res.Workload)
	}
	if res.UptimeFrac != 0 {
		t.Errorf("uptime %v with servers never started", res.UptimeFrac)
	}
	if res.LoadKWh != 0 {
		t.Errorf("load energy %v with no servers", res.LoadKWh)
	}
	if res.HarvestedKWh <= 0 {
		t.Error("charge-all harvested nothing")
	}
	if res.EnergyAvail <= 0 {
		t.Error("no average stored energy")
	}
	if res.ServiceLifeYear <= 0 {
		t.Error("service life not projected")
	}
	if res.MinVolt < 10 || res.MinVolt > 15 {
		t.Errorf("min voltage %v implausible", res.MinVolt)
	}
}

func TestSeismicSinkArrivals(t *testing.T) {
	s := NewSeismicSink()
	if s.HasWork(6 * time.Hour) {
		t.Error("work before first arrival")
	}
	s.Tick(7*time.Hour+time.Second, time.Second, 0, 0)
	if !s.HasWork(7*time.Hour + time.Second) {
		t.Error("no work after first arrival")
	}
	// Process everything with plenty of VM-hours.
	s.Tick(14*time.Hour, time.Second, 1000, 4)
	if s.ProcessedGB() < 2*workload.SeismicJobGB-1 {
		t.Errorf("processed %v GB, want both 114 GB jobs", s.ProcessedGB())
	}
}

func TestBatchSinkDelayCountsPending(t *testing.T) {
	s := NewSeismicSink()
	s.Tick(7*time.Hour, time.Second, 0, 0)  // first arrival, nothing processed
	s.Tick(17*time.Hour, time.Second, 0, 0) // both jobs now pending
	// Job 1 has waited 600 min (since 7:00), job 2 240 min (since 13:00).
	if d := s.DelayMinutes(); math.Abs(d-420) > 1 {
		t.Errorf("pending-job delay = %.0f min, want 420", d)
	}
}

func TestVideoSinkRecordingWindow(t *testing.T) {
	s := NewVideoSink()
	before := s.Queue.ArrivedGB()
	s.Tick(3*time.Hour, time.Minute, 0, 0) // cameras off at 3:00
	if s.Queue.ArrivedGB() != before {
		t.Error("data arrived outside the recording window")
	}
	s.Tick(10*time.Hour, time.Minute, 0, 0)
	if s.Queue.ArrivedGB() <= before {
		t.Error("no data arrived during recording")
	}
	if s.Queue.ArrivalGBPerMin != workload.VideoArrivalGBPerMin {
		t.Error("arrival rate not restored after gating")
	}
}

func TestMicroSinkAlwaysHasWork(t *testing.T) {
	m := NewMicroSink(workload.Dedup())
	if !m.HasWork(3 * time.Hour) {
		t.Error("micro kernel out of work")
	}
	if m.DelayMinutes() != 0 {
		t.Error("micro kernel reporting delay")
	}
	got := m.Tick(0, time.Second, 2, 4)
	if got <= 0 {
		t.Error("no processing")
	}
}

func TestEffectiveEnergyBelowLoadEnergy(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	mgr := &loadOnlyManager{}
	for tod := 10 * time.Hour; tod < 12*time.Hour; tod += time.Second {
		sys.Tick(tod, mgr)
	}
	res := sys.result(mgr)
	if res.EffectiveKWh > res.LoadKWh+1e-9 {
		t.Errorf("effective %v kWh exceeds load %v kWh", res.EffectiveKWh, res.LoadKWh)
	}
	if res.LoadKWh <= 0 {
		t.Error("no load energy recorded")
	}
}

func TestUnitsChargingAtZeroSurplusStillRecover(t *testing.T) {
	// Regression: units left on a dead charge bus must still diffuse.
	cfg := DefaultConfig(trace.FullSystemHigh())
	sys, err := New(cfg, NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	// Deplete unit 0's available well.
	u := sys.Bank.Unit(0)
	for i := 0; i < 3600; i++ {
		u.Discharge(20, time.Second)
	}
	depleted := u.AvailableSoC()
	// Park it on the charge bus at night (no solar).
	for tod := 2 * time.Hour; tod < 3*time.Hour; tod += time.Second {
		sys.Tick(tod, chargeAllManager{})
	}
	if got := u.AvailableSoC(); got <= depleted {
		t.Errorf("no recovery on idle charge bus: %.3f -> %.3f", depleted, got)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(trace.FullSystemHigh())
	if cfg.BatteryCount != 6 || cfg.ServerCount != 4 {
		t.Error("prototype shape wrong (6 batteries, 4 servers)")
	}
	if cfg.BatteryParams.CapacityAh != 35 {
		t.Error("prototype battery capacity wrong")
	}
	if units.Watt(0) >= cfg.ServerProfile.PeakPower {
		t.Error("server profile missing")
	}
}

func TestRemoteControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day run over loopback Modbus")
	}
	sys := newTestSystem(t, trace.FullSystemHigh())
	done, err := sys.AttachRemotePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	if !sys.RemoteAttached() {
		t.Fatal("panel not attached")
	}
	if _, err := sys.AttachRemotePanel(); err == nil {
		t.Error("double attach accepted")
	}

	// Drive relay actuation and telemetry over the fieldbus.
	sys.SetUnitMode(3, relay.Charging)
	sys.PLC.ScanNow()
	if got := sys.Fabric.Pair(3).Mode(); got != relay.Charging {
		t.Errorf("remote coil write did not reach the fabric: %v", got)
	}
	v, _ := sys.UnitReading(3)
	if v < 11 || v > 14 {
		t.Errorf("remote telemetry read %v implausible", v)
	}
	sys.SetUnitMode(3, relay.Open)
}

// TestRemoteControlPlaneFullDay proves the InSURE manager runs unchanged
// when every control action crosses a real Modbus TCP connection.
func TestRemoteControlPlaneFullDay(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day run over loopback Modbus")
	}
	local := newTestSystem(t, trace.FullSystemHigh())
	localRes := local.Run(&replayManager{})

	remote := newTestSystem(t, trace.FullSystemHigh())
	done, err := remote.AttachRemotePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	remoteRes := remote.Run(&replayManager{})

	// The fieldbus is transparent: identical policy, identical plant,
	// identical outcome, frame for frame.
	if !reflect.DeepEqual(remoteRes, localRes) {
		t.Errorf("remote plane diverged:\nremote %+v\nlocal  %+v", remoteRes, localRes)
	}
	if !reflect.DeepEqual(remote.Recorder().Frames(), local.Recorder().Frames()) {
		t.Error("remote plane's recorder frames differ from the in-process run")
	}
}

// replayManager is a minimal deterministic policy used to compare local
// and remote control planes: charge everything before 10:00, then serve
// with two units discharging.
type replayManager struct{ started bool }

func (m *replayManager) Name() string          { return "replay" }
func (m *replayManager) Period() time.Duration { return 30 * time.Second }
func (m *replayManager) Control(s *System, now time.Duration) {
	if now < 10*time.Hour {
		for i := 0; i < s.Bank.Size(); i++ {
			s.SetUnitMode(i, relay.Charging)
		}
		if s.Cluster.TargetVMs() != 0 {
			s.Cluster.Shutdown()
		}
	} else if s.InWindow(now) {
		for i := 0; i < s.Bank.Size(); i++ {
			if i < 2 {
				s.SetUnitMode(i, relay.Discharging)
			} else {
				s.SetUnitMode(i, relay.Charging)
			}
		}
		if s.Cluster.TargetVMs() != 4 {
			s.Cluster.SetTargetVMs(4)
		}
	} else if s.Cluster.TargetVMs() != 0 {
		s.Cluster.Shutdown()
	}
	s.PLC.ScanNow()
}
