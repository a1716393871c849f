package gateway

import (
	"reflect"
	"testing"

	"insure/internal/solar"
)

// TestLoadTestSmoke runs a one-site, one-rate sweep end to end and checks
// the BENCH.json block's internal consistency.
func TestLoadTestSmoke(t *testing.T) {
	cfg := LoadConfig{
		Seed:      3,
		Sites:     1,
		QPS:       []float64{2},
		Regimes:   []Regime{{Name: "sunny", Weather: solar.Sunny, InitialSoC: 0.55}},
		Batteries: 4,
		Servers:   2,
	}
	sp, err := RunLoadTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Regimes) != 1 || len(sp.Regimes[0].Points) != 1 {
		t.Fatalf("want 1 regime x 1 point, got %+v", sp)
	}
	pt := sp.Regimes[0].Points[0]
	if pt.Requests == 0 || pt.Requests != sp.RequestsTotal {
		t.Fatalf("requests %d vs total %d", pt.Requests, sp.RequestsTotal)
	}
	if got := pt.Admitted + pt.Shed; got != pt.Requests {
		t.Fatalf("admitted %d + shed %d = %d, want %d (queue must drain)",
			pt.Admitted, pt.Shed, got, pt.Requests)
	}
	if pt.AdmittedDropped != 0 {
		t.Fatalf("admitted-then-dropped = %d, want 0", pt.AdmittedDropped)
	}
	if pt.Admitted == 0 || pt.P50Ms <= 0 || pt.P99Ms < pt.P50Ms {
		t.Fatalf("latency stats malformed: admitted %d p50 %.1f p99 %.1f",
			pt.Admitted, pt.P50Ms, pt.P99Ms)
	}
	if pt.PerDay != 2*86400 {
		t.Fatalf("per-day extrapolation %.0f, want %d", pt.PerDay, 2*86400)
	}
	if pt.MinSoC <= 0 || pt.MeanSoC < pt.MinSoC {
		t.Fatalf("SoC stats malformed: mean %.2f min %.2f", pt.MeanSoC, pt.MinSoC)
	}
	if len(pt.ModesSeen) == 0 {
		t.Fatal("no ladder rungs recorded")
	}
	if pt.EnergyWh <= 0 || pt.CostUSD <= 0 {
		t.Fatalf("energy account empty: %.2f Wh $%.6f", pt.EnergyWh, pt.CostUSD)
	}
	// Determinism: the same config must reproduce the same numbers.
	sp2, err := RunLoadTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp2.Regimes[0].Points[0], pt) {
		t.Fatalf("sweep not deterministic:\n%+v\n%+v", sp2.Regimes[0].Points[0], pt)
	}
}

// TestRunLoadTestRefusesEmptySweep pins that a sweep with no site,
// battery, server, rate or regime is an error, not a silent replay of the
// default sweep.
func TestRunLoadTestRefusesEmptySweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*LoadConfig)
	}{
		{"no site", func(c *LoadConfig) { c.Sites = 0 }},
		{"negative sites", func(c *LoadConfig) { c.Sites = -3 }},
		{"no battery", func(c *LoadConfig) { c.Batteries = 0 }},
		{"no server", func(c *LoadConfig) { c.Servers = 0 }},
		{"no rate", func(c *LoadConfig) { c.QPS = nil }},
		{"no regime", func(c *LoadConfig) { c.Regimes = nil }},
	} {
		cfg := DefaultLoadConfig(3)
		tc.edit(&cfg)
		if sp, err := RunLoadTest(cfg); err == nil {
			t.Errorf("%s: RunLoadTest replayed %d sites, want an error", tc.name, sp.Sites)
		}
	}
}
