package plc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insure/internal/battery"
	"insure/internal/relay"
	"insure/internal/telemetry"
	"insure/internal/units"
)

func newTestPanel(t *testing.T, n int) *Panel {
	t.Helper()
	p, err := NewPanel(battery.MustNewBank(battery.DefaultParams(), n, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFreshPanelMovesNoRelay pins that a fresh panel reports no relay
// cycle and no relay settle until a coil moves: NewPanel leaves every
// relay of the fabric open, and the fabric holds only the unit pairs.
func TestFreshPanelMovesNoRelay(t *testing.T) {
	p := newTestPanel(t, 3)
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg)
	scan := func() (cycles float64, settles int64) {
		p.PLC.ScanNow()
		p.Fabric.Tick(time.Second)
		p.Publish()
		s := reg.Snapshot()
		return s.Gauges["insure_relay_cycles"], s.Histograms["insure_relay_settle_seconds"].Count
	}
	for i := 0; i < 3; i++ {
		if c, n := scan(); c != 0 || n != 0 {
			t.Fatalf("scan %d, no coil written: %v relay cycles, %d settles, want 0 and 0", i, c, n)
		}
	}
	if err := p.PLC.Regs.WriteCoil(CoilCharge(1), true); err != nil {
		t.Fatal(err)
	}
	if c, n := scan(); c != 1 || n != 1 {
		t.Errorf("one coil written: %v relay cycles, %d settles, want 1 and 1", c, n)
	}
}

// TestPanelPowerCodesClamped drives out-of-range bus powers through the
// panel's scan: the power registers must read the clamped whole-watt code,
// never a wrapped or implementation-defined conversion.
func TestPanelPowerCodesClamped(t *testing.T) {
	for _, tc := range []struct {
		w    units.Watt
		want uint16
	}{
		{-5, 0},
		{0, 0},
		{70000, 65535},
	} {
		p := newTestPanel(t, 2)
		p.SolarPower, p.LoadPower = tc.w, tc.w
		p.PLC.ScanNow()
		got, err := p.PLC.Regs.ReadInput(InputSolarPower, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tc.want || got[1] != tc.want {
			t.Errorf("%v W: solar/load registers = %v, want %d", tc.w, got, tc.want)
		}
	}
}

// TestPanelScanBlockImages checks the panel's scan moves whole images: the
// relay fabric follows every unit's coil pair (with the double-closed
// interlock), the unit codes match the probes, and the scan allocates
// nothing.
func TestPanelScanBlockImages(t *testing.T) {
	const n = 3
	p := newTestPanel(t, n)
	regs := p.PLC.Regs
	for _, c := range []uint16{CoilCharge(0), CoilDischarge(1), CoilCharge(2), CoilDischarge(2)} {
		if err := regs.WriteCoil(c, true); err != nil {
			t.Fatal(err)
		}
	}
	p.PLC.ScanNow()
	for i, want := range []relay.Mode{relay.Charging, relay.Discharging, relay.Open} {
		if got := p.Fabric.Pair(i).Mode(); got != want {
			t.Errorf("unit %d in mode %v, want %v", i, got, want)
		}
	}
	img, err := regs.ReadInput(InputVoltBase, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range p.Probes {
		if img[InputVolt(i)] != pr.Volt.Raw() || img[InputCurrent(i)] != pr.Current.Raw() {
			t.Errorf("unit %d: registers %v, probe codes %d/%d", i, img[2*i:2*i+2], pr.Volt.Raw(), pr.Current.Raw())
		}
	}
	if a := testing.AllocsPerRun(500, p.PLC.ScanNow); a != 0 {
		t.Errorf("panel scan allocates %.2f times per call, want 0", a)
	}
}

// TestPanelUnitCap checks the bank bound: a 48-unit panel is the largest
// the register map addresses, and a 49th unit's codes would land on the
// solar-power register, so the panel refuses it.
func TestPanelUnitCap(t *testing.T) {
	p := newTestPanel(t, MaxUnits)
	p.PLC.ScanNow()
	last := MaxUnits - 1
	img, err := p.PLC.Regs.ReadInput(InputVolt(last), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr := p.Probes[last]; img[0] != pr.Volt.Raw() || img[1] != pr.Current.Raw() {
		t.Errorf("unit %d registers %v, probe codes %d/%d", last, img, pr.Volt.Raw(), pr.Current.Raw())
	}
	if _, err := NewPanel(battery.MustNewBank(battery.DefaultParams(), MaxUnits+1, 0.5)); err == nil {
		t.Errorf("%d-unit panel accepted", MaxUnits+1)
	}
}

// TestPanelScanImageNeverMixed reads input registers 0..InputLoadPower as
// one block, the way a Modbus client does, while the panel scans a plant
// that alternates between two states: unit 0 at SoC 0.2 with 0 W of solar,
// and at SoC 0.9 with 1000 W. The unit codes and the bus-power codes of a
// scan land under one register lock, so every read must see both from the
// same state. Run it with -race (make race-plc).
func TestPanelScanImageNeverMixed(t *testing.T) {
	p := newTestPanel(t, 2)
	states := [2]struct {
		soc   float64
		solar units.Watt
	}{{0.2, 0}, {0.9, 1000}}
	set := func(k int) {
		p.Bank.Unit(0).SetSoC(states[k].soc)
		p.SolarPower = states[k].solar
	}
	// Each state's unit-0 voltage code and solar code, as one scan writes them.
	var volt, solar [2]uint16
	for k := range states {
		set(k)
		p.PLC.ScanNow()
		img, err := p.PLC.Regs.ReadInput(0, InputLoadPower+1)
		if err != nil {
			t.Fatal(err)
		}
		volt[k], solar[k] = img[InputVolt(0)], img[InputSolarPower]
	}
	if volt[0] == volt[1] || solar[0] == solar[1] {
		t.Fatalf("the two states share codes: volt %v, solar %v", volt, solar)
	}

	done := make(chan struct{})
	var reads atomic.Int64
	var exited atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer exited.Store(true)
		for {
			select {
			case <-done:
				return
			default:
			}
			img, err := p.PLC.Regs.ReadInput(0, InputLoadPower+1)
			if err != nil {
				t.Error(err)
				return
			}
			reads.Add(1)
			for k := range states {
				if img[InputVolt(0)] == volt[k] && img[InputSolarPower] != solar[k] {
					t.Errorf("unit 0 code %d of state %d beside solar code %d (want %d)",
						volt[k], k, img[InputSolarPower], solar[k])
					return
				}
			}
		}
	}()
	for k := 0; k < 4000 || (reads.Load() < 1000 && !exited.Load()); k++ {
		set(k % 2)
		p.PLC.ScanNow()
	}
	close(done)
	wg.Wait()
}
