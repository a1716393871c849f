package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"insure/internal/telemetry/promtest"
)

// TestMetricsEndpoint serves a populated registry over HTTP and runs the
// scrape through the strict format parser — the /metrics acceptance test.
func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.SetClock(12 * time.Hour)
	for i := 0; i < 3; i++ {
		r.Gauge("insure_battery_soc", "Per-unit state of charge.",
			Label{"unit", fmt.Sprint(i)}).Set(0.5 + float64(i)*0.1)
	}
	r.Counter("insure_brownouts_total", "Brownouts.").Inc()
	h := r.Histogram("insure_plc_scan_seconds", "Scan durations.", DefTimeBuckets)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	samples := promtest.Scrape(t, listen(t, r.Mux())+"/metrics")
	found := map[string]float64{}
	for _, s := range samples {
		found[s.Name+promtest.LabelSig(s.Labels)] = s.Value
	}
	if found["insure_sim_clock_seconds"] != (12 * time.Hour).Seconds() {
		t.Errorf("sim clock = %v", found["insure_sim_clock_seconds"])
	}
	if found["insure_battery_soc{unit=2}"] != 0.7 {
		t.Errorf("soc gauge missing or wrong: %v", found)
	}
	if found["insure_brownouts_total"] != 1 {
		t.Errorf("brownout counter = %v", found["insure_brownouts_total"])
	}
	if found["insure_plc_scan_seconds_count"] != 10 {
		t.Errorf("scan histogram count = %v", found["insure_plc_scan_seconds_count"])
	}
}

func TestHealthzEndpoint(t *testing.T) {
	r := NewRegistry()
	degraded := false
	r.AddHealthCheck("faultwatch", func() error {
		if degraded {
			return errors.New("2 units quarantined")
		}
		return nil
	})
	url := listen(t, r.Mux()) + "/healthz"

	get := func() (int, map[string]any) {
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
		t.Fatalf("healthy: code=%d body=%v", code, body)
	}
	degraded = true
	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("degraded: code=%d body=%v", code, body)
	}
	checks := body["checks"].(map[string]any)
	if !strings.Contains(checks["faultwatch"].(string), "quarantined") {
		t.Errorf("checks = %v", checks)
	}
}

// TestHealthCheckReplacedByName installs a failing check and then a passing
// one under the same name, as a restarted controller re-attaching its
// faultwatch does: the second replaces the first, so /healthz answers 200
// with one entry.
func TestHealthCheckReplacedByName(t *testing.T) {
	r := NewRegistry()
	r.AddHealthCheck("faultwatch", func() error { return errors.New("1 unit quarantined") })
	r.AddHealthCheck("faultwatch", func() error { return nil })
	resp, err := http.Get(listen(t, r.Mux()) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Fatalf("code=%d body=%+v, want 200 ok", resp.StatusCode, body)
	}
	if len(body.Checks) != 1 || body.Checks["faultwatch"] != "ok" {
		t.Fatalf("checks = %v, want one passing faultwatch", body.Checks)
	}
	if n := len(r.healthChecks()); n != 1 {
		t.Fatalf("%d checks installed, want 1", n)
	}
}

// TestHealthzReportsOpMode pins the operating-mode surface: the report
// names the published survivability rung, and a draining mode (Blackout)
// answers 503 even when every individual health check passes — the signal
// a load balancer needs to pull the site before its requests start
// failing.
func TestHealthzReportsOpMode(t *testing.T) {
	r := NewRegistry()
	r.AddHealthCheck("always-ok", func() error { return nil })
	url := listen(t, r.Mux()) + "/healthz"

	get := func() (int, map[string]any) {
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

	// No published mode: the field is omitted, status untouched.
	code, body := get()
	if code != http.StatusOK {
		t.Fatalf("no mode: code=%d", code)
	}
	if _, present := body["mode"]; present {
		t.Fatalf("mode must be omitted before SetOpMode: %v", body)
	}

	// Degraded-but-serving rungs report their name and stay 200.
	for _, mode := range []string{"normal", "conservative", "survival"} {
		r.SetOpMode(mode, false)
		code, body = get()
		if code != http.StatusOK || body["status"] != "ok" || body["mode"] != mode {
			t.Fatalf("%s: code=%d body=%v, want 200 ok", mode, code, body)
		}
	}

	// Blackout drains: 503 with the rung name, despite the passing check.
	r.SetOpMode("blackout", true)
	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "draining" || body["mode"] != "blackout" {
		t.Fatalf("blackout: code=%d body=%v, want 503 draining", code, body)
	}
	if body["checks"].(map[string]any)["always-ok"] != "ok" {
		t.Fatalf("draining must not rewrite check results: %v", body)
	}

	// Recovery: blackstart then normal serve again.
	r.SetOpMode("blackstart", false)
	if code, body = get(); code != http.StatusOK || body["mode"] != "blackstart" {
		t.Fatalf("blackstart: code=%d body=%v", code, body)
	}
}

// TestHealthzDrainingWinsOverDegraded: a draining plant with failing
// checks reports "draining" (the stronger signal), never "degraded".
func TestHealthzDrainingWinsOverDegraded(t *testing.T) {
	r := NewRegistry()
	r.AddHealthCheck("faultwatch", func() error { return errors.New("1 unit quarantined") })
	r.SetOpMode("blackout", true)
	resp, err := http.Get(listen(t, r.Mux()) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("code=%d body=%v, want 503 draining", resp.StatusCode, body)
	}
}

func TestDebugMuxServesPprof(t *testing.T) {
	resp, err := http.Get(listen(t, DebugMux()) + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %s", resp.Status)
	}
}

// listen serves h on a loopback port until the test ends, when Shutdown
// must return cleanly, and returns the base URL.
func listen(t *testing.T, h http.Handler) string {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", h)
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
