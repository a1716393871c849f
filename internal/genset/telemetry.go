package genset

import (
	"insure/internal/telemetry"
	"insure/internal/units"
)

// gensetTelemetry holds the pre-registered instruments Step writes. All
// instruments are resolved once in AttachTelemetry so the per-tick publish
// is pure atomic stores — the zero-alloc tick invariant covers a telemetered
// generator too.
type gensetTelemetry struct {
	starts    *telemetry.Counter
	running   *telemetry.Gauge
	output    *telemetry.Gauge
	runHours  *telemetry.Gauge
	fuel      *telemetry.Gauge
	delivered *telemetry.Gauge
	wasted    *telemetry.Gauge
}

// AttachTelemetry registers the generator's instruments on reg. Call it
// once, before the first Step; the gauges are published by whichever
// goroutine steps the generator, with atomic stores, so a concurrent
// /metrics scrape never races with the simulation.
func (g *Generator) AttachTelemetry(reg *telemetry.Registry) {
	t := &gensetTelemetry{
		starts: reg.Counter("insure_genset_starts_total",
			"Generator start commands issued (each start stresses the machine)."),
		running: reg.Gauge("insure_genset_running",
			"1 while the generator is commanded on (including warm-up), else 0."),
		output: reg.Gauge("insure_genset_output_watts",
			"Power the generator delivered this tick, tick-averaged, watts."),
		runHours: reg.Gauge("insure_genset_run_hours",
			"Cumulative generator run time, hours (drives the maintenance budget)."),
		fuel: reg.Gauge("insure_genset_fuel_dollars",
			"Cumulative fuel spend, dollars (idle burn plus per-kWh burn)."),
		delivered: reg.Gauge("insure_genset_delivered_watt_hours",
			"Cumulative energy the generator delivered to the load bus, watt-hours."),
		wasted: reg.Gauge("insure_genset_wasted_watt_hours",
			"Cumulative energy dumped to hold the governor's minimum load, watt-hours."),
	}
	// Bring the registry up to the generator's lifetime count. Setting the
	// total keeps re-attachment (multi-day campaigns register each day's
	// plant on one registry) from double counting.
	t.starts.SetTotal(int64(g.starts))
	g.tel = t
}

// publish mirrors the generator state into the gauges at the end of a Step.
func (t *gensetTelemetry) publish(g *Generator, out units.Watt) {
	run := 0.0
	if g.running {
		run = 1
	}
	t.running.Set(run)
	t.output.Set(float64(out))
	t.runHours.Set(g.runTime.Hours())
	t.fuel.Set(g.fuelCost)
	t.delivered.Set(float64(g.delivered))
	t.wasted.Set(float64(g.wasted))
}
