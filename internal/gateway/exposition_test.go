package gateway

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/telemetry/promtest"
	"insure/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// wallClockSeries are the series whose values come from the wall clock:
// the scan histogram's buckets and sum time real PLC scans. Their count is
// the number of scans, which the simulation decides, so it stays.
var wallClockSeries = []string{
	"insure_plc_scan_duration_seconds_bucket",
	"insure_plc_scan_duration_seconds_sum",
}

// TestServingExpositionGolden pins the /metrics text of a serving site byte for
// byte: a cloudy day (seed 2015, 35% initial charge) under a
// survival-armed manager, with a gateway at 10 req/s of base capacity
// offered 25 requests per simulated second over classMix, scraped on every
// simulated hour. Only the wall-clock values of wallClockSeries are
// masked. A moved line means a metric's name, help, type, labels or value
// changed. Regenerate with -update.
func TestServingExpositionGolden(t *testing.T) {
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Cloudy, 2015, time.Second))
	scfg.InitialSoC = 0.35
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, scfg.BatteryCount)
	gcfg := DefaultConfig()
	gcfg.BaseQPS = 10
	gw := New(gcfg, SimPlant{Sys: sys, Mgr: mgr})
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)
	gw.AttachTelemetry(reg)

	var got bytes.Buffer
	lo, hi := sys.Span()
	mix := 0
	for tod := lo; tod < hi; tod += scfg.Step {
		sys.Tick(tod, mgr)
		gw.Advance(tod)
		for i := 0; i < 25; i++ {
			gw.Offer(tod, classMix[mix%len(classMix)])
			mix++
		}
		if tod%time.Hour == 0 {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			promtest.Parse(t, strings.NewReader(sb.String()))
			fmt.Fprintf(&got, "# scrape at %v\n", tod)
			got.WriteString(maskWallClock(sb.String()))
		}
	}

	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("exposition differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("exposition has %d lines, %s has %d", len(gl), path, len(wl))
}

// maskWallClock replaces the value of every wallClockSeries sample.
func maskWallClock(expo string) string {
	lines := strings.SplitAfter(expo, "\n")
	for i, l := range lines {
		for _, name := range wallClockSeries {
			if strings.HasPrefix(l, name) {
				lines[i] = l[:strings.LastIndexByte(l, ' ')] + " <wall-clock>\n"
			}
		}
	}
	return strings.Join(lines, "")
}
