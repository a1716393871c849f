// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// experiment bench reports domain metrics (uptime, GB, wear) alongside
// wall-clock cost, so `go test -bench` doubles as the reproduction harness.
package insure

import (
	"context"
	"sync"
	"testing"
	"time"

	"insure/internal/baseline"
	"insure/internal/battery"
	"insure/internal/blink"
	"insure/internal/core"
	"insure/internal/experiments"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/units"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01aTransferTime(b *testing.B)     { benchExperiment(b, "fig1a") }
func BenchmarkFig01bAWSEgress(b *testing.B)        { benchExperiment(b, "fig1b") }
func BenchmarkFig03aITTCO(b *testing.B)            { benchExperiment(b, "fig3a") }
func BenchmarkFig03bEnergyTCO(b *testing.B)        { benchExperiment(b, "fig3b") }
func BenchmarkFig04aChargingModes(b *testing.B)    { benchExperiment(b, "fig4a") }
func BenchmarkFig04bRecoveryEffect(b *testing.B)   { benchExperiment(b, "fig4b") }
func BenchmarkFig05UnifiedBufferTrip(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig14aFastCharging(b *testing.B)     { benchExperiment(b, "fig14a") }
func BenchmarkFig14bBalancing(b *testing.B)        { benchExperiment(b, "fig14b") }
func BenchmarkFig15SolarTraces(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16FullDayTrace(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17Availability(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18EnergyAvail(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19ServiceLife(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFig20BatchFullSystem(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21StreamFullSystem(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22Depreciation(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkFig23ScaleOut(b *testing.B)          { benchExperiment(b, "fig23") }
func BenchmarkFig24Crossover(b *testing.B)         { benchExperiment(b, "fig24") }
func BenchmarkFig25Scenarios(b *testing.B)         { benchExperiment(b, "fig25") }
func BenchmarkTable01Parameters(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable02SeismicScaling(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable03VideoScaling(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable06DayLogs(b *testing.B)         { benchExperiment(b, "table6") }
func BenchmarkTable07Heterogeneous(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkExtFaultsAvailability(b *testing.B)  { benchExperiment(b, "extfaults") }

// --- simulation-core micro benchmarks ---------------------------------------

func BenchmarkBatteryDischargeTick(b *testing.B) {
	u := battery.MustNew(battery.DefaultParams(), 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Discharge(4, time.Second)
		if u.SoC() < 0.2 {
			u.SetSoC(1.0)
		}
	}
}

func BenchmarkBatteryChargeTick(b *testing.B) {
	u := battery.MustNew(battery.DefaultParams(), 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.Charge(8, time.Second)
		if u.SoC() > 0.95 {
			u.SetSoC(0.2)
		}
	}
}

// BenchmarkSystemTick measures the instrumented hot path: the telemetry
// plane and the survivability mode machine are both attached, so this
// doubles as the proof that live /metrics and the emergency ladder cost
// the tick loop nothing (0 allocs/op, atomic stores only).
func BenchmarkSystemTick(b *testing.B) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tod := 8*time.Hour + time.Duration(i%40000)*time.Second
		if tod == 8*time.Hour {
			// Day wrap: drop the previous "day's" frames. Without this the
			// recorder grows past its one-day pre-size forever, and the
			// amortized slice growth shows up as ~41 B/op at 0 allocs/op.
			sys.Recorder().Reset()
		}
		sys.Tick(tod, mgr)
	}
}

// noSyncFS is the real disk with every fsync a no-op, so a benchmark over
// it measures the CPU cost of journaling, not the disk.
type noSyncFS struct{ journal.FS }

func (fs noSyncFS) OpenFile(name string, flag int) (journal.File, error) {
	f, err := fs.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ journal.File }

func (noSyncFile) Sync() error { return nil }

// BenchmarkSystemTickJournaled is BenchmarkSystemTick with the crash-safe
// control plane attached: every control pass serializes the full manager
// state into the write-ahead journal (on noSyncFS, so the benchmark
// measures the CPU cost of journaling, not the disk), while a background
// scrubber CRC-sweeps the store directory exactly as the daemons run it.
// Compare with BenchmarkSystemTick to see the durability overhead on the
// hot path; the scrubber must stay invisible (still 0 allocs/op).
func BenchmarkSystemTickJournaled(b *testing.B) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	store, err := journal.OpenFS(noSyncFS{journal.Disk}, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.NewJournaled(core.New(mcfg, cfg.BatteryCount), store)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)
	// The scrubber shares a lock with the tick loop exactly as the daemons
	// share the store mutex: sweeps serialize with commits, and the
	// uncontended lock per tick is part of the cost being measured. The
	// cadence is compressed from the daemons' minutes to land a few sweeps
	// inside the longest bench run; each sweep CRC-reads the whole journal,
	// so going much faster measures the scrubber, not the tick.
	var mu sync.Mutex
	scrub := journal.NewScrubber(journal.Target{Name: "bench", Dir: dir, Lock: &mu})
	scrub.Interval = 500 * time.Millisecond
	scrub.AttachTelemetry(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := scrub.RunOnce(); err != nil {
		b.Fatal(err)
	}
	go scrub.Run(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tod := 8*time.Hour + time.Duration(i%40000)*time.Second
		if tod == 8*time.Hour {
			// Day wrap: drop the previous "day's" frames. Without this the
			// recorder grows past its one-day pre-size forever, and the
			// amortized slice growth shows up as ~41 B/op at 0 allocs/op.
			sys.Recorder().Reset()
		}
		mu.Lock()
		sys.Tick(tod, mgr)
		mu.Unlock()
	}
	b.StopTimer()
	if err := mgr.Err(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFullDaySimulation(b *testing.B) {
	tr := trace.FullSystemHigh()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(tr)
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run(core.New(core.DefaultConfig(), cfg.BatteryCount))
		b.ReportMetric(res.UptimeFrac*100, "uptime%")
		b.ReportMetric(res.ProcessedGB, "GB/day")
	}
}

// --- ablation benches (DESIGN.md) --------------------------------------------

// runAblation executes one full seismic day with the given manager and
// reports the domain metrics.
func runAblation(b *testing.B, mkMgr func(n int) sim.Manager) {
	b.Helper()
	tr := trace.FullSystemHigh()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(tr)
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run(mkMgr(cfg.BatteryCount))
		b.ReportMetric(res.UptimeFrac*100, "uptime%")
		b.ReportMetric(res.ProcessedGB, "GB/day")
		b.ReportMetric(float64(res.WearAhPerUnit), "wearAh/unit")
		b.ReportMetric(float64(res.Brownouts), "brownouts")
	}
}

// BenchmarkAblationFullInSURE is the reference point: SPM + TPM together.
func BenchmarkAblationFullInSURE(b *testing.B) {
	runAblation(b, func(n int) sim.Manager { return core.New(core.DefaultConfig(), n) })
}

// BenchmarkAblationNoDischargeCap disables TPM's current capping: the
// buffer is discharged as hard as the load demands.
func BenchmarkAblationNoDischargeCap(b *testing.B) {
	runAblation(b, func(n int) sim.Manager {
		cfg := core.DefaultConfig()
		cfg.UnitDischargeCap = units.Amp(100) // effectively uncapped
		return core.New(cfg, n)
	})
}

// BenchmarkAblationNoScreening disables SPM's Eq-1 wear screening by making
// the coarse interval longer than the day.
func BenchmarkAblationNoScreening(b *testing.B) {
	runAblation(b, func(n int) sim.Manager {
		cfg := core.DefaultConfig()
		cfg.CoarsePeriod = 20 * time.Hour
		return core.New(cfg, n)
	})
}

// BenchmarkAblationNoDVFS disables duty scaling: batch loads run at full
// frequency or not at all.
func BenchmarkAblationNoDVFS(b *testing.B) {
	runAblation(b, func(n int) sim.Manager {
		cfg := core.DefaultConfig()
		cfg.MinDuty = 1.0
		return core.New(cfg, n)
	})
}

// BenchmarkAblationUnifiedBuffer replaces the reconfigurable distributed
// buffer with the baseline's unified pack — the headline comparison.
func BenchmarkAblationUnifiedBuffer(b *testing.B) {
	runAblation(b, func(int) sim.Manager { return baseline.New(baseline.DefaultConfig()) })
}

// BenchmarkAblationForecastLookahead swaps the fixed 25% cloud margin for
// the clear-sky-ratio forecaster (the paper's future-work direction).
func BenchmarkAblationForecastLookahead(b *testing.B) {
	runAblation(b, func(n int) sim.Manager {
		cfg := core.DefaultConfig()
		cfg.UseForecast = true
		return core.New(cfg, n)
	})
}

// BenchmarkAblationBlinkTracking swaps in the Blink-style fast power-state
// tracker of reference [88].
func BenchmarkAblationBlinkTracking(b *testing.B) {
	runAblation(b, func(int) sim.Manager { return blink.New(blink.DefaultConfig()) })
}
