package main

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/telemetry/promtest"
	"insure/internal/trace"
)

func setOf(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		wantErr []string // substrings the error must contain; nil = valid
	}{
		// The Makefile and README invocations must stay legal.
		{"plain single day", setOf("weather", "workload", "policy"), nil},
		{"compare run", setOf("weather", "workload", "compare"), nil},
		{"survival single day", setOf("weather", "workload", "survival", "genset"), nil},
		{"journaled kill", setOf("state-dir", "kill-at", "torn-kill"), nil},
		{"storm campaign", setOf("storm-days", "survival", "genset"), nil},
		{"fleet campaign", setOf("fleet", "storm-days", "storm-site", "migrate"), nil},
		{"fleet with log", setOf("fleet", "storm-days", "storm-site", "migrate", "fleet-log"), nil},
		{"shared sizing flags", setOf("fleet", "storm-days", "batteries", "servers", "seed"), nil},

		// -fleet silently ignored these before; now both flags are named.
		{"fleet with kill-at", setOf("fleet", "kill-at"), []string{"-fleet", "-kill-at"}},
		{"fleet with torn-kill", setOf("fleet", "torn-kill"), []string{"-fleet", "-torn-kill"}},
		{"fleet with compare", setOf("fleet", "compare"), []string{"-fleet", "-compare"}},
		{"fleet with weather", setOf("fleet", "weather"), []string{"-fleet", "-weather"}},
		{"fleet with survival", setOf("fleet", "survival"), []string{"-fleet", "-survival"}},
		{"fleet with faults", setOf("fleet", "faults"), []string{"-fleet", "-faults"}},

		// Fleet-only flags without -fleet.
		{"storm-site without fleet", setOf("storm-site"), []string{"-storm-site", "-fleet"}},
		{"migrate without fleet", setOf("migrate"), []string{"-migrate", "-fleet"}},
		{"fleet-log without fleet", setOf("fleet-log"), []string{"-fleet-log", "-fleet"}},

		// The storm campaign honors -survival/-genset but not these.
		{"storm with compare", setOf("storm-days", "compare"), []string{"-storm-days", "-compare"}},
		{"storm with weather", setOf("storm-days", "weather"), []string{"-storm-days", "-weather"}},
		{"storm with state-dir", setOf("storm-days", "state-dir"), []string{"-storm-days", "-state-dir"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.set)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("want valid, got error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %v, got nil", tc.wantErr)
			}
			for _, sub := range tc.wantErr {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q must name %q", err, sub)
				}
			}
		})
	}
}

// TestLiveTelemetryDayRun runs a day the way -telemetry-addr does, serving
// the registry while a scrape loop reads it: once plainly and once
// journaled with a torn controller kill, whose restart re-attaches the
// manager's telemetry and reconciles the plant. Under -race it fails if a
// collect hook reads the plant outside the lock the day ticks under, and
// promtest.Scrape fails a scrape that does not answer within its deadline.
// The last scrape reports the plant as the day left it.
func TestLiveTelemetryDayRun(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			cfg := sim.DefaultConfig(trace.Synthesize(solar.Cloudy, 2015, time.Second))
			sys, err := sim.New(cfg, sim.NewSeismicSink())
			if err != nil {
				t.Fatal(err)
			}
			mgr := core.New(mgrConfig(true), cfg.BatteryCount)
			reg := telemetry.NewRegistry()
			sys.AttachTelemetry(reg)
			mgr.AttachTelemetry(reg)
			var mu sync.Mutex
			srv, err := serveLive(reg, "127.0.0.1:0", &mu)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			dir := t.TempDir()
			done := make(chan struct{})
			go func() {
				defer close(done)
				if journaled {
					runJournaled(sys, mgr, []time.Duration{12 * time.Hour}, dir, true, &mu)
				} else {
					runDay(sys, mgr, &mu)
				}
			}()
			url := "http://" + srv.Addr().String() + "/metrics"
			scrapes := 0
			for running := true; running; scrapes++ {
				select {
				case <-done:
					running = false
				default:
				}
				promtest.Scrape(t, url)
			}
			if scrapes < 3 {
				t.Fatalf("only %d scrapes during the day", scrapes)
			}
			got := map[string]float64{}
			for _, s := range promtest.Scrape(t, url) {
				got[s.Name] = s.Value
			}
			if want := float64(sys.Bank.StoredEnergy()); got["insure_stored_watt_hours"] != want {
				t.Errorf("scraped stored energy %v, plant holds %v", got["insure_stored_watt_hours"], want)
			}
			if want := float64(sys.Fabric.TotalCycles()); got["insure_relay_cycles"] != want {
				t.Errorf("scraped relay cycles %v, fabric counts %v", got["insure_relay_cycles"], want)
			}
			if journaled && got["insure_recoveries_total"] != 1 {
				t.Errorf("scraped %v recoveries, want 1", got["insure_recoveries_total"])
			}
		})
	}
}
