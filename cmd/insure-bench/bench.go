package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/experiments"
	"insure/internal/gateway"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// benchCase is one micro/macro benchmark result in BENCH.json.
type benchCase struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// engineTiming compares the serial and parallel experiment engines on one
// full evaluation each. Like the campaign-scaling gate, it refuses to
// report a "speedup" measured on a single CPU — there parallelism cannot
// help and the number would only contradict the gate's skipped-single-cpu
// verdict — but it always verifies the two engines render identical
// tables, which is the equivalence that matters on any machine.
type engineTiming struct {
	Workers int `json:"workers"`
	// Status is "measured" on a multi-core machine, "skipped-single-cpu"
	// when GOMAXPROCS is 1 and the serial/parallel comparison is
	// meaningless.
	Status          string  `json:"status"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	// Speedup is only present when Status is "measured".
	Speedup float64 `json:"speedup,omitempty"`
	// TablesIdentical records that the parallel engine rendered exactly
	// the serial engine's output.
	TablesIdentical bool `json:"tables_identical"`
}

// benchReport is the BENCH.json document.
type benchReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PlantYearsPerSec is the headline throughput number: the best
	// plant-years/sec achieved anywhere on the campaign-scaling matrix.
	PlantYearsPerSec float64         `json:"plant_years_per_sec"`
	Benchmarks       []benchCase     `json:"benchmarks"`
	Engine           engineTiming    `json:"experiment_engine"`
	CampaignScaling  campaignScaling `json:"campaign_scaling"`
	// ServingPlane is the gateway load sweep: p50/p99 latency vs offered
	// QPS vs the plant's energy regime (internal/gateway's harness).
	ServingPlane *gateway.ServingPlane `json:"serving_plane"`
}

// record converts a testing.BenchmarkResult, carrying through any domain
// metrics reported with b.ReportMetric.
func record(name string, r testing.BenchmarkResult) benchCase {
	c := benchCase{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		c.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			c.Metrics[k] = v
		}
	}
	return c
}

// benchmarks is the suite's one name-to-benchmark table: -bench-json
// records every row in this order, and -perf-diff times the perfDiffCases
// rows.
var benchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"system_tick", benchSystemTick},
	{"gateway_offer", benchGatewayOffer},
	{"journal_commit", benchJournalCommit},
	{"telemetry_scrape", benchTelemetryScrape},
	{"plc_scan", benchPLCScan},
	{"full_day_insure", benchFullDay},
}

// timeBenchmarks runs the rows of benchmarks that keep accepts, in table
// order, and records each.
func timeBenchmarks(keep func(name string) bool) []benchCase {
	var out []benchCase
	for _, bm := range benchmarks {
		if keep(bm.name) {
			fmt.Fprintf(os.Stderr, "benchmarking %s...\n", bm.name)
			out = append(out, record(bm.name, testing.Benchmark(bm.fn)))
		}
	}
	return out
}

// writeBenchJSON runs the performance suite — the simulation hot path, a
// full-day macro run with domain metrics, a serial-vs-parallel timing of
// the whole evaluation, and the campaign-scaling matrix — and writes the
// machine-readable report.
func writeBenchJSON(path string, workers, scalingCells int) error {
	rep := benchReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	rep.Benchmarks = timeBenchmarks(func(string) bool { return true })

	fmt.Fprintln(os.Stderr, "timing serial experiment engine...")
	t0 := time.Now()
	serialTables := experiments.RunAll()
	rep.Engine.SerialSeconds = time.Since(t0).Seconds()

	fmt.Fprintln(os.Stderr, "timing parallel experiment engine...")
	t1 := time.Now()
	parallelTables, err := experiments.RunAllParallel(context.Background(), workers)
	if err != nil {
		return err
	}
	rep.Engine.ParallelSeconds = time.Since(t1).Seconds()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.Engine.Workers = workers
	if runtime.GOMAXPROCS(0) < 2 {
		rep.Engine.Status = gateSkipped1CPU
	} else {
		rep.Engine.Status = "measured"
		if rep.Engine.ParallelSeconds > 0 {
			rep.Engine.Speedup = rep.Engine.SerialSeconds / rep.Engine.ParallelSeconds
		}
	}
	if err := compareTables(serialTables, parallelTables); err != nil {
		return err
	}
	rep.Engine.TablesIdentical = true

	fmt.Fprintln(os.Stderr, "measuring campaign scaling...")
	rep.CampaignScaling, err = measureScaling(scalingCells)
	if err != nil {
		return err
	}
	for _, pt := range rep.CampaignScaling.Points {
		if pt.PlantYearsPerSec > rep.PlantYearsPerSec {
			rep.PlantYearsPerSec = pt.PlantYearsPerSec
		}
	}

	fmt.Fprintln(os.Stderr, "sweeping serving-plane load harness...")
	rep.ServingPlane, err = gateway.RunLoadTest(gateway.DefaultLoadConfig(2015))
	if err != nil {
		return err
	}
	for _, rr := range rep.ServingPlane.Regimes {
		for _, pt := range rr.Points {
			if pt.AdmittedDropped != 0 {
				return fmt.Errorf("serving plane: %d requests admitted then dropped in %s @ %g qps",
					pt.AdmittedDropped, rr.Name, pt.QPS)
			}
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	engine := fmt.Sprintf("engine speedup %.2fx on %d workers", rep.Engine.Speedup, rep.Engine.Workers)
	if rep.Engine.Status == gateSkipped1CPU {
		engine = "engine comparison skipped-single-cpu (tables identical)"
	}
	fmt.Fprintf(os.Stderr, "wrote %s (tick %.0f ns/op, %d allocs/op; %.4f plant-years/sec; %s; gate %s)\n",
		path, rep.Benchmarks[0].NsPerOp, rep.Benchmarks[0].AllocsPerOp,
		rep.PlantYearsPerSec, engine,
		rep.CampaignScaling.Gate.Status)
	return nil
}

// compareTables asserts the parallel engine produced exactly the serial
// engine's tables, rendered byte-for-byte — the equivalence contract that
// holds regardless of core count.
func compareTables(serial, parallel []*experiments.Table) error {
	if len(serial) != len(parallel) {
		return fmt.Errorf("engine mismatch: serial produced %d tables, parallel %d",
			len(serial), len(parallel))
	}
	for i := range serial {
		var a, b bytes.Buffer
		if err := serial[i].Render(&a); err != nil {
			return err
		}
		if err := parallel[i].Render(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("engine mismatch: table %d (%s) rendered differently in parallel",
				i, serial[i].ID)
		}
	}
	return nil
}

func newBenchSystem(b *testing.B) (*sim.System, sim.Manager) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	return sys, core.New(core.DefaultConfig(), cfg.BatteryCount)
}

func benchSystemTick(b *testing.B) {
	sys, mgr := newBenchSystem(b)
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

// benchGatewayOffer times one admission in the steady state: Offer on a
// survival-armed SimPlant frozen at 9 h of a drained sunny day, where the
// ladder holds Conservative and best-effort requests shed by mode with a
// retry-after walk. Every 40 offers, one simulated second at the serving
// workload's rate, a PLC scan moves the plant's readings and Advance
// refills the bucket and dispatches the queue; both are amortized into
// the per-Offer time.
func benchGatewayOffer(b *testing.B) {
	cfg := sim.DefaultConfig(trace.Synthesize(solar.Sunny, 2015, time.Second))
	cfg.InitialSoC = 0.3
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mc, cfg.BatteryCount)
	lo, _ := sys.Span()
	tod := lo
	for ; tod < 9*time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}
	gc := gateway.DefaultConfig()
	gc.BaseQPS = 15
	gw := gateway.New(gc, gateway.SimPlant{Sys: sys, Mgr: mgr})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%offersPerSecond == 0 {
			tod += cfg.Step
			sys.PLC.ScanNow()
			gw.Advance(tod)
		}
		gw.Offer(tod, servingMix[i%len(servingMix)])
	}
}

// benchJournalCommit times one journaled control-pass commit: Append of
// a survival-armed manager's state image after four hours of a cloudy
// day (about 700 B, so the pair takes the fieldbus workload's ~1.4 KB per
// pass), with both copies fsynced. $TMPDIR may be tmpfs, where an fsync
// costs nothing, so the store lives in a directory under the working
// directory, removed afterwards.
func benchJournalCommit(b *testing.B) {
	cfg := sim.DefaultConfig(trace.Table6Day(solar.Cloudy, 2015))
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mc, cfg.BatteryCount)
	lo, _ := sys.Span()
	for tod := lo; tod < lo+4*time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
	}
	var img journal.Encoder
	mgr.AppendState(&img)
	dir, err := os.MkdirTemp(".", ".journal-commit-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := journal.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Append(img.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(img.Bytes())), "image_bytes")
}

// offersPerSecond is the serving workload's request rate.
const offersPerSecond = 40

// servingMix is the load harness's class mix: per 10 arrivals, 1
// critical, 6 standard and 3 best-effort.
var servingMix = [10]gateway.Class{
	gateway.Critical, gateway.Standard, gateway.Standard, gateway.BestEffort, gateway.Standard,
	gateway.Standard, gateway.BestEffort, gateway.Standard, gateway.Standard, gateway.BestEffort,
}

// benchTelemetryScrape times one Prometheus exposition of a serving site's
// registry: a sunny-day plant under a survival-armed manager and a gateway
// over it, all reporting to one registry, after an hour of ticks with
// offersPerSecond offers each. The scrape runs the plant's and the
// gateway's collect hooks, so this is what reading them costs.
func benchTelemetryScrape(b *testing.B) {
	cfg := sim.DefaultConfig(trace.Synthesize(solar.Sunny, 2015, time.Second))
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		b.Fatal(err)
	}
	mc := core.DefaultConfig()
	mc.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mc, cfg.BatteryCount)
	gc := gateway.DefaultConfig()
	gc.BaseQPS = 15
	gw := gateway.New(gc, gateway.SimPlant{Sys: sys, Mgr: mgr})
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)
	gw.AttachTelemetry(reg)
	lo, _ := sys.Span()
	for tod := lo; tod < lo+time.Hour; tod += cfg.Step {
		sys.Tick(tod, mgr)
		gw.Advance(tod)
		for i := 0; i < offersPerSecond; i++ {
			gw.Offer(tod, servingMix[i%len(servingMix)])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPLCScan(b *testing.B) {
	sys, _ := newBenchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PLC.ScanNow()
	}
}

func benchFullDay(b *testing.B) {
	tr := trace.FullSystemHigh()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(tr)
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			b.Fatal(err)
		}
		res := sys.Run(core.New(core.DefaultConfig(), cfg.BatteryCount))
		b.ReportMetric(res.UptimeFrac*100, "uptime_pct")
		b.ReportMetric(res.ProcessedGB, "gb_per_day")
		b.ReportMetric(float64(res.WearAhPerUnit), "wear_ah_per_unit")
	}
}
