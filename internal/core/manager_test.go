package core

import (
	"testing"
	"time"

	"insure/internal/baseline"
	"insure/internal/sim"
	"insure/internal/trace"
	"insure/internal/workload"
)

func newSystem(t *testing.T, tr *trace.Trace, sink sim.Sink) *sim.System {
	t.Helper()
	cfg := sim.DefaultConfig(tr)
	cfg.RecordEvery = time.Minute
	sys, err := sim.New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestManagerImplementsInterface(t *testing.T) {
	m := New(DefaultConfig(), 6)
	if m.Name() != "InSURE" {
		t.Errorf("name = %q", m.Name())
	}
	if m.Period() != 30*time.Second {
		t.Errorf("period = %v", m.Period())
	}
}

func TestMorningChargingSelectsSubset(t *testing.T) {
	// §6.1 Region A: in the morning InSURE charges a selected subset, not
	// the whole pack (Fig 10's N = P_G / P_PC).
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	for tod := 7 * time.Hour; tod < 8*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
	}
	_, charging, _ := sys.Fabric.AppendByMode(nil, nil, nil)
	if len(charging) == 0 {
		t.Fatal("no unit charging in the morning sun")
	}
	if len(charging) == 6 {
		t.Error("batch-charging the whole pack — SPM should concentrate the budget")
	}
}

func TestChargedUnitsReachTargetAndStop(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.InitialSoC = 0.85 // nearly full already
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(), 6)
	for tod := 7 * time.Hour; tod < 12*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
	}
	// All units should have hit the 90% target and left the charge bus
	// (standby/discharging), not be held at absorption forever.
	for i, g := range m.Groups() {
		if g == GroupCharging && sys.Bank.Unit(i).SoC() > 0.93 {
			t.Errorf("unit %d still charging at SoC %.2f", i, sys.Bank.Unit(i).SoC())
		}
	}
}

func TestBatchSweetSpotIsFourVMs(t *testing.T) {
	// Table 2: the seismic batch runs best at 4 VMs under InSURE.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	if got := pickBestBatchVMs(sys); got != 4 {
		t.Errorf("batch sweet spot = %d VMs, want 4 (Table 2)", got)
	}
}

func TestFullDayRunIsStable(t *testing.T) {
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	res := sys.Run(m)
	if res.Brownouts != 0 {
		t.Errorf("InSURE suffered %d brownouts on a high-solar day", res.Brownouts)
	}
	if res.UptimeFrac < 0.9 {
		t.Errorf("uptime %.2f, want near-continuous service", res.UptimeFrac)
	}
	if res.ProcessedGB < 100 {
		t.Errorf("processed only %.1f GB", res.ProcessedGB)
	}
	if m.Screenings() == 0 {
		t.Error("SPM screening never ran")
	}
}

func TestDischargeBalancing(t *testing.T) {
	// Fig 14b: wear is balanced across units.
	sys := newSystem(t, trace.FullSystemLow(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	res := sys.Run(m)
	if res.WearAhPerUnit <= 0 {
		t.Skip("day produced no battery discharge")
	}
	// The spread should be a modest fraction of the mean per-unit wear.
	if float64(res.WearSpreadAh) > 3*float64(res.WearAhPerUnit) {
		t.Errorf("wear spread %.2f Ah vs mean %.2f Ah — balancing ineffective",
			float64(res.WearSpreadAh), float64(res.WearAhPerUnit))
	}
}

func TestTPMCapsDischargeCurrent(t *testing.T) {
	// Run a low-solar day and verify no transduced discharge current ever
	// stays above the per-unit cap for more than a couple of periods.
	cfg := sim.DefaultConfig(trace.FullSystemLow())
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	mc := DefaultConfig()
	m := New(mc, 6)
	violations, samples := 0, 0
	for tod := 7 * time.Hour; tod < 19*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if tod%time.Minute == 0 {
			for i := 0; i < 6; i++ {
				_, cur := sys.UnitReading(i)
				samples++
				if float64(cur) > 2.5*float64(mc.UnitDischargeCap) {
					violations++
				}
			}
		}
	}
	if frac := float64(violations) / float64(samples); frac > 0.02 {
		t.Errorf("discharge current grossly above cap in %.1f%% of samples", frac*100)
	}
}

func TestEmergencyShutdownSavesVMs(t *testing.T) {
	// Start with a nearly-empty buffer and almost no sun: the manager must
	// shut the cluster down (checkpointing) rather than crash it.
	tr := trace.FullSystemLow().Scale(0.1)
	cfg := sim.DefaultConfig(tr)
	cfg.InitialSoC = 0.25
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(), 6)
	res := sys.Run(m)
	// With ~no energy at all the manager should mostly refuse to serve.
	if res.UptimeFrac > 0.4 {
		t.Errorf("uptime %.2f on a dead day — manager overcommitting", res.UptimeFrac)
	}
}

func TestGroupString(t *testing.T) {
	names := map[Group]string{
		GroupOffline: "offline", GroupCharging: "charging",
		GroupStandby: "standby", GroupDischarging: "discharging",
	}
	for g, want := range names {
		if g.String() != want {
			t.Errorf("group %d = %q", g, g.String())
		}
	}
	if Group(9).String() == "" {
		t.Error("unknown group should format")
	}
}

// TestInSUREBeatsBaselineEverywhere is the headline reproduction check:
// across both workloads and both solar budgets, InSURE improves uptime,
// throughput, and buffer wear over the unified-buffer baseline (Figs 20/21:
// "20% to over 60%" improvements).
func TestInSUREBeatsBaselineEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day comparisons are slow")
	}
	traces := map[string]*trace.Trace{
		"high": trace.FullSystemHigh(),
		"low":  trace.FullSystemLow(),
	}
	sinks := map[string]func() sim.Sink{
		"seismic": func() sim.Sink { return sim.NewSeismicSink() },
		"video":   func() sim.Sink { return sim.NewVideoSink() },
	}
	for tn, tr := range traces {
		for sn, mk := range sinks {
			sysA := newSystem(t, tr, mk())
			a := sysA.Run(New(DefaultConfig(), 6))
			sysB := newSystem(t, tr, mk())
			b := sysB.Run(baseline.New(baseline.DefaultConfig()))

			if a.UptimeFrac <= b.UptimeFrac {
				t.Errorf("%s/%s: uptime %.2f not above baseline %.2f", tn, sn, a.UptimeFrac, b.UptimeFrac)
			}
			if a.Throughput <= b.Throughput {
				t.Errorf("%s/%s: throughput %.2f not above baseline %.2f", tn, sn, a.Throughput, b.Throughput)
			}
			if a.WearAhPerUnit >= b.WearAhPerUnit {
				t.Errorf("%s/%s: wear %.2f Ah not below baseline %.2f Ah", tn, sn,
					float64(a.WearAhPerUnit), float64(b.WearAhPerUnit))
			}
			if a.PerfPerAh <= b.PerfPerAh {
				t.Errorf("%s/%s: perf/Ah %.2f not above baseline %.2f", tn, sn, a.PerfPerAh, b.PerfPerAh)
			}
			if a.Brownouts >= b.Brownouts && b.Brownouts > 0 {
				t.Errorf("%s/%s: brownouts %d not below baseline %d", tn, sn, a.Brownouts, b.Brownouts)
			}
		}
	}
}

func TestStreamVMAdjustment(t *testing.T) {
	// §3.4: for stream loads the manager adjusts VM counts, not duty.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewVideoSink())
	m := New(DefaultConfig(), 6)
	seen := map[int]bool{}
	for tod := 7 * time.Hour; tod < 19*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		seen[sys.Cluster.TargetVMs()] = true
	}
	if len(seen) < 3 {
		t.Errorf("stream VM target took only %d distinct values — no supply tracking", len(seen))
	}
}

func TestBatchDutyScaling(t *testing.T) {
	// §3.4: for batch loads the manager scales duty cycles under stress.
	// The high trace locks the batch at 4 VMs midday; the evening sag then
	// forces DVFS throttling rather than a VM reallocation.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig(), 6)
	minDuty := 1.0
	for tod := 7 * time.Hour; tod < 19*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		for _, n := range sys.Cluster.Nodes() {
			if n.Duty() < minDuty {
				minDuty = n.Duty()
			}
		}
	}
	if minDuty >= 1 {
		t.Error("duty never scaled below 1 on a constrained day")
	}
	if minDuty < DefaultConfig().MinDuty-1e-9 {
		t.Errorf("duty %v fell below the configured floor", minDuty)
	}
}

func TestWorkloadKindDrivesPolicy(t *testing.T) {
	batch := sim.NewSeismicSink()
	if batch.Spec().Kind != workload.Batch {
		t.Fatal("seismic sink is not batch")
	}
	stream := sim.NewVideoSink()
	if stream.Spec().Kind != workload.Stream {
		t.Fatal("video sink is not stream")
	}
}

func TestForecastLookaheadDoesNotRegress(t *testing.T) {
	if testing.Short() {
		t.Skip("paired full-day runs")
	}
	run := func(useForecast bool) sim.Result {
		sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
		cfg := DefaultConfig()
		cfg.UseForecast = useForecast
		return sys.Run(New(cfg, 6))
	}
	plain := run(false)
	look := run(true)
	// The lookahead planner must keep the plant stable and stay within a
	// few percent of the fixed-margin planner on a benign day.
	if look.Brownouts > plain.Brownouts {
		t.Errorf("forecasting added brownouts: %d vs %d", look.Brownouts, plain.Brownouts)
	}
	if look.ProcessedGB < 0.9*plain.ProcessedGB {
		t.Errorf("forecasting lost throughput: %.1f vs %.1f GB", look.ProcessedGB, plain.ProcessedGB)
	}
}
