package main

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/telemetry/promtest"
)

// TestPanelMetricsEndpoint drives the daemon's exact wiring at simulated
// speed and validates the scrape with the strict exposition parser — the
// acceptance test that insure-plcd serves well-formed Prometheus text.
func TestPanelMetricsEndpoint(t *testing.T) {
	const n = 4
	p, err := newPanel(n, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}

	// Command unit 0 to charge so the relay fabric switches and the settle
	// histogram sees at least one observation.
	if err := p.controller.Regs.WriteCoil(plc.CoilCharge(0), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		elapsed := time.Duration(i+1) * time.Second
		p.tick(time.Second, elapsed)
	}

	addr, stop, err := p.reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	samples := promtest.Scrape(t, "http://"+addr.String()+"/metrics")
	found := map[string]float64{}
	for _, s := range samples {
		found[s.Name+promtest.LabelSig(s.Labels)] = s.Value
	}

	if got := found["insure_sim_clock_seconds"]; got != 10 {
		t.Errorf("clock = %v, want 10", got)
	}
	for i := 0; i < n; i++ {
		key := "insure_battery_soc{unit=" + string(rune('0'+i)) + "}"
		soc, ok := found[key]
		if !ok {
			t.Fatalf("missing %s in scrape", key)
		}
		if soc <= 0 || soc > 1 {
			t.Errorf("%s = %v, want (0,1]", key, soc)
		}
	}
	if found["insure_relay_cycles"] < 1 {
		t.Errorf("relay cycles = %v, want >= 1", found["insure_relay_cycles"])
	}
	if found["insure_plc_scan_duration_seconds_count"] < 1 {
		t.Errorf("scan histogram count = %v, want >= 1",
			found["insure_plc_scan_duration_seconds_count"])
	}
	if found["insure_relay_settle_seconds_count"] < 1 {
		t.Errorf("settle histogram count = %v, want >= 1",
			found["insure_relay_settle_seconds_count"])
	}
	if found["insure_relay_failed"] != 0 {
		t.Errorf("failed relays = %v, want 0", found["insure_relay_failed"])
	}
}

// TestPanelHealthz checks the relay-fabric health check flips the endpoint
// from ok to degraded when a pair faults.
func TestPanelHealthz(t *testing.T) {
	p, err := newPanel(2, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	p.tick(time.Second, time.Second)

	addr, stop, err := p.reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	url := "http://" + addr.String() + "/healthz"

	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy panel: code=%d body=%v", code, body)
	}

	p.fabric.Pair(1).Charge.Fail(relay.FailWeldClosed)
	p.tick(time.Second, 2*time.Second)

	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("faulted panel: code=%d body=%v", code, body)
	}
}

// TestPanelPowerCodesClamped drives out-of-range -solar/-load flag values
// through the panel's scan: the power registers must read the clamped
// whole-watt code, never a wrapped or implementation-defined conversion.
func TestPanelPowerCodesClamped(t *testing.T) {
	for _, tc := range []struct {
		w    float64
		want uint16
	}{
		{-5, 0},
		{0, 0},
		{70000, 65535},
	} {
		p, err := newPanel(2, 0.5, tc.w, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		p.controller.ScanNow()
		got, err := p.controller.Regs.ReadInput(plc.InputSolarPower, 2)
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
	p, err := newPanel(n, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	regs := p.controller.Regs
	for _, c := range []uint16{plc.CoilCharge(0), plc.CoilDischarge(1), plc.CoilCharge(2), plc.CoilDischarge(2)} {
		if err := regs.WriteCoil(c, true); err != nil {
			t.Fatal(err)
		}
	}
	p.controller.ScanNow()
	for i, want := range []relay.Mode{relay.Charging, relay.Discharging, relay.Open} {
		if got := p.fabric.Pair(i).Mode(); got != want {
			t.Errorf("unit %d in mode %v, want %v", i, got, want)
		}
	}
	img, err := regs.ReadInput(plc.InputVoltBase, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range p.probes {
		if img[plc.InputVolt(i)] != pr.Volt.Raw() || img[plc.InputCurrent(i)] != pr.Current.Raw() {
			t.Errorf("unit %d: registers %v, probe codes %d/%d", i, img[2*i:2*i+2], pr.Volt.Raw(), pr.Current.Raw())
		}
	}
	if a := testing.AllocsPerRun(500, p.controller.ScanNow); a != 0 {
		t.Errorf("panel scan allocates %.2f times per call, want 0", a)
	}
}

// TestPanelUnitCap checks the -units bound: a 48-unit panel is the largest
// the register map addresses, and a 49th unit's codes would land on the
// solar-power register, so the panel refuses it.
func TestPanelUnitCap(t *testing.T) {
	p, err := newPanel(plc.MaxUnits, 0.5, 400, 300)
	if err != nil {
		t.Fatalf("%d-unit panel refused: %v", plc.MaxUnits, err)
	}
	p.controller.ScanNow()
	last := plc.MaxUnits - 1
	img, err := p.controller.Regs.ReadInput(plc.InputVolt(last), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr := p.probes[last]; img[0] != pr.Volt.Raw() || img[1] != pr.Current.Raw() {
		t.Errorf("unit %d registers %v, probe codes %d/%d", last, img, pr.Volt.Raw(), pr.Current.Raw())
	}
	if _, err := newPanel(plc.MaxUnits+1, 0.5, 400, 300); err == nil {
		t.Errorf("%d-unit panel accepted", plc.MaxUnits+1)
	}
}
