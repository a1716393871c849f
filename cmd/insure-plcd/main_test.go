package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/telemetry/promtest"
	"insure/internal/trace"
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
	if err := p.PLC.Regs.WriteCoil(plc.CoilCharge(0), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		elapsed := time.Duration(i+1) * time.Second
		p.tick(time.Second, elapsed)
	}

	samples := promtest.Scrape(t, serve(t, p.reg)+"/metrics")
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

	url := serve(t, p.reg) + "/healthz"

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

	p.Fabric.Pair(1).Charge.Fail(relay.FailWeldClosed)
	p.tick(time.Second, 2*time.Second)

	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("faulted panel: code=%d body=%v", code, body)
	}
}

// TestPanelHelpMatchesSimulator checks that the daemon and the simulator
// describe the one control panel alike: the HELP and TYPE lines of the five
// panel instruments, scraped from insure-plcd's panel and from a simulated
// plant, are byte-identical.
func TestPanelHelpMatchesSimulator(t *testing.T) {
	p, err := newPanel(2, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig(trace.FullSystemHigh()), sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	simReg := telemetry.NewRegistry()
	sys.AttachTelemetry(simReg)

	daemon, simulated := scrapeMeta(t, p.reg), scrapeMeta(t, simReg)
	for _, name := range []string{
		"insure_battery_soc",
		"insure_battery_throughput_ah",
		"insure_relay_cycles",
		"insure_plc_scan_duration_seconds",
		"insure_relay_settle_seconds",
	} {
		if daemon[name] == "" || daemon[name] != simulated[name] {
			t.Errorf("%s:\ninsure-plcd:\n%ssimulator:\n%s", name, daemon[name], simulated[name])
		}
	}
}

// scrapeMeta serves reg, scrapes /metrics, and returns each metric's HELP
// and TYPE lines, keyed by metric name.
func scrapeMeta(t *testing.T, reg *telemetry.Registry) map[string]string {
	t.Helper()
	resp, err := http.Get(serve(t, reg) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && (f[1] == "HELP" || f[1] == "TYPE") {
			meta[f[2]] += line + "\n"
		}
	}
	return meta
}

// serve serves reg's /metrics and /healthz on a loopback port until the
// test ends, when Shutdown must return cleanly, and returns the base URL.
func serve(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	srv, err := telemetry.Listen("127.0.0.1:0", reg.Mux())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return "http://" + srv.Addr().String()
}

// TestNewPanelRejectsBadBusPower: a NaN, infinite or negative -solar or
// -load is refused with the flag named; zero is a valid idle bus.
func TestNewPanelRejectsBadBusPower(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := newPanel(2, 0.5, bad, 300); err == nil || !strings.Contains(err.Error(), "-solar") {
			t.Errorf("-solar %v: err = %v, want an error naming -solar", bad, err)
		}
		if _, err := newPanel(2, 0.5, 400, bad); err == nil || !strings.Contains(err.Error(), "-load") {
			t.Errorf("-load %v: err = %v, want an error naming -load", bad, err)
		}
	}
	if _, err := newPanel(2, 0.5, 0, 0); err != nil {
		t.Errorf("zero bus powers: %v", err)
	}
}

// TestPanelTickAllocFree pins the daemon's 1 Hz tick at zero allocations
// with units on the charge bus, on the discharge bus and open: one fabric
// pass refills the panel's scratch lists in place.
func TestPanelTickAllocFree(t *testing.T) {
	p, err := newPanel(6, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint16{plc.CoilCharge(0), plc.CoilCharge(1), plc.CoilDischarge(2), plc.CoilDischarge(3)} {
		if err := p.PLC.Regs.WriteCoil(c, true); err != nil {
			t.Fatal(err)
		}
	}
	p.PLC.ScanNow()
	var elapsed time.Duration
	if a := testing.AllocsPerRun(100, func() {
		elapsed += time.Second
		p.tick(time.Second, elapsed)
	}); a != 0 {
		t.Errorf("tick allocates %.2f times per call, want 0", a)
	}
	for i, want := range []relay.Mode{relay.Charging, relay.Charging, relay.Discharging, relay.Discharging, relay.Open, relay.Open} {
		if got := p.Fabric.Pair(i).Mode(); got != want {
			t.Errorf("unit %d in mode %v, want %v", i, got, want)
		}
	}
}
