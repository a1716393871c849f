package sim_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/genset"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/telemetry/promtest"
	"insure/internal/trace"
)

// TestAttachTelemetryEndToEnd runs an instrumented, managed plant through
// the morning commissioning ramp and checks the registry reflects what the
// plant actually did: the clock follows sim time, every unit publishes SoC,
// the PLC scan histogram ticks once per simulation second, and the relay
// settle histogram saw the commissioning mode transitions.
func TestAttachTelemetryEndToEnd(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.New(core.DefaultConfig(), cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)

	start := 5 * time.Hour
	end := 10 * time.Hour
	for tod := start; tod < end; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}

	snap := reg.Snapshot()
	if got := snap.SimClockSeconds; got != (end - cfg.Step).Seconds() {
		t.Errorf("sim clock = %v, want %v", got, (end - cfg.Step).Seconds())
	}
	for i := 0; i < cfg.BatteryCount; i++ {
		id := `insure_battery_soc{unit="` + string(rune('0'+i)) + `"}`
		soc, ok := snap.Gauges[id]
		if !ok {
			t.Fatalf("snapshot missing %s; gauges = %v", id, snap.Gauges)
		}
		if soc < 0 || soc > 1 {
			t.Errorf("%s = %v, outside [0, 1]", id, soc)
		}
	}
	ticks := int64((end - start) / cfg.Step)
	scan := snap.Histograms["insure_plc_scan_duration_seconds"]
	// One scan per tick plus the manager's ScanNow after each control pass
	// and the priming scan in New.
	if scan.Count <= ticks {
		t.Errorf("scan histogram count = %d, want > %d", scan.Count, ticks)
	}
	settle := snap.Histograms["insure_relay_settle_seconds"]
	if settle.Count == 0 {
		t.Error("no relay settles observed despite commissioning transitions")
	}
	if v := snap.Gauges["insure_relay_cycles"]; v <= 0 {
		t.Errorf("relay cycles gauge = %v, want > 0", v)
	}
	if screens := snap.Counters["insure_spm_screenings_total"]; screens != int64(mgr.Screenings()) {
		t.Errorf("telemetry screenings = %d, manager reports %d", screens, mgr.Screenings())
	}

	// The exposition must carry the same data.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"insure_sim_clock_seconds",
		`insure_battery_soc{unit="0"}`,
		"insure_plc_scan_duration_seconds_bucket",
		"insure_faultwatch_quarantines_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTelemetrySurvivesBrownout drives a plant into a sustained shortfall
// and checks the brownout and deficit counters advance alongside the
// logbook's emergency record.
func TestTelemetrySurvivesBrownout(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.HoldUp = 5 * time.Second
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)

	// No manager: force the cluster on with zero solar (night) and no
	// discharging units, so the deficit goes fully unserved.
	sys.Cluster.SetTargetVMs(4)
	for tod := 0 * time.Hour; tod < time.Hour; tod += cfg.Step {
		sys.Tick(tod, nil)
		if sys.Brownouts() > 0 {
			break
		}
	}
	if sys.Brownouts() == 0 {
		t.Fatal("plant never browned out under a forced unserved deficit")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["insure_brownouts_total"]; got != int64(sys.Brownouts()) {
		t.Errorf("telemetry brownouts = %d, plant reports %d", got, sys.Brownouts())
	}
	if snap.Counters["insure_power_deficit_ticks_total"] == 0 {
		t.Error("deficit ticks counter never advanced")
	}
}

// TestSurvivalSeriesExposition gates the survivability telemetry contract:
// a survival-managed, genset-fitted plant on the paper's low-generation day
// must publish every emergency series — ladder rung, transition count, shed
// depth, the full generator group, and the checkpoint/loss accounting —
// through the strict Prometheus exposition parser.
func TestSurvivalSeriesExposition(t *testing.T) {
	cfg := sim.DefaultConfig(trace.LowGeneration())
	cfg.Secondary = genset.New(genset.DieselParams())
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)

	for tod := 5 * time.Hour; tod < 12*time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range promtest.Parse(t, strings.NewReader(sb.String())) {
		found[s.Name] = true
	}
	for _, want := range []string{
		"insure_survival_mode",
		"insure_survival_transitions_total",
		"insure_survival_shed_watts",
		"insure_genset_starts_total",
		"insure_genset_running",
		"insure_genset_output_watts",
		"insure_genset_run_hours",
		"insure_genset_fuel_dollars",
		"insure_genset_delivered_watt_hours",
		"insure_genset_wasted_watt_hours",
		"insure_vm_checkpoints_completed",
		"insure_vms_lost",
		"insure_stream_backlog_gb",
		"insure_stream_dropped_gb",
		"insure_brownouts_total",
	} {
		if !found[want] {
			t.Errorf("exposition missing series %q", want)
		}
	}
}

// TestReattachReadsNewestPlant attaches one day's plant and then the next
// day's to one registry, as the storm campaign does, and scrapes it while
// the newest plant ticks under the registry's collect lock. The first
// plant keeps ticking on a goroutine of its own without that lock, so
// under -race a hook still reading it fails the test: exactly one plant
// hook runs. The last scrape reports the newest plant.
func TestReattachReadsNewestPlant(t *testing.T) {
	newPlant := func(soc float64) (*sim.System, *core.Manager) {
		cfg := sim.DefaultConfig(trace.FullSystemHigh())
		cfg.InitialSoC = soc
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			t.Fatal(err)
		}
		return sys, core.New(core.DefaultConfig(), cfg.BatteryCount)
	}
	day1, mgr1 := newPlant(0.9)
	day2, mgr2 := newPlant(0.4)
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	reg.SetCollectLock(&mu)
	day1.AttachTelemetry(reg)
	step := day1.Config().Step
	tod := 6 * time.Hour
	for ; tod < 7*time.Hour; tod += step {
		day1.Tick(tod, mgr1)
	}
	day2.AttachTelemetry(reg)
	srv, err := telemetry.Listen("127.0.0.1:0", reg.Mux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	url := "http://" + srv.Addr().String() + "/metrics"

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func(tod time.Duration) {
		defer wg.Done()
		for ; ; tod += step {
			select {
			case <-stop:
				return
			default:
			}
			day1.Tick(tod, mgr1)
		}
	}(tod)
	go func(tod time.Duration) {
		defer wg.Done()
		for ; ; tod += step {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			day2.Tick(tod, mgr2)
			mu.Unlock()
		}
	}(tod)
	for i := 0; i < 20; i++ {
		promtest.Scrape(t, url)
	}
	close(stop)
	wg.Wait()

	got := map[string]float64{}
	for _, s := range promtest.Scrape(t, url) {
		got[s.Name+promtest.LabelSig(s.Labels)] = s.Value
	}
	if want := float64(day2.Bank.StoredEnergy()); got["insure_stored_watt_hours"] != want {
		t.Errorf("scraped stored energy %v, newest plant holds %v (first plant %v)",
			got["insure_stored_watt_hours"], want, float64(day1.Bank.StoredEnergy()))
	}
	for i := 0; i < day2.Bank.Size(); i++ {
		id := "insure_battery_soc" + promtest.LabelSig(map[string]string{"unit": strconv.Itoa(i)})
		if want := day2.Bank.Unit(i).SoC(); got[id] != want {
			t.Errorf("%s = %v, newest plant's unit holds %v", id, got[id], want)
		}
	}
}
