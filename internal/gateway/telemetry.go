package gateway

import "insure/internal/telemetry"

// gwTelemetry holds the gateway's serving-plane instruments. The request
// path writes none of them: the Stats fields already hold, field for
// field, what the counters and the gauges report, and serve fills lat, the
// latency histograms' plain twins, without atomics. The collect hook
// copies both into the instruments when the registry is scraped.
type gwTelemetry struct {
	admitted [NumClasses]*telemetry.Counter
	queued   [NumClasses]*telemetry.Counter
	shed     [NumClasses]*telemetry.Counter
	shedBy   [numShedReasons]*telemetry.Counter
	latency  [NumClasses]*telemetry.Histogram
	lat      [NumClasses]telemetry.Buckets // guarded by Gateway.mu

	degraded        *telemetry.Counter
	admittedDropped *telemetry.Counter
	queueDepth      *telemetry.Gauge
	energyWh        *telemetry.Gauge
	costUSD         *telemetry.Gauge
}

// AttachTelemetry registers the gateway's serving-plane metrics on reg:
// per-class admitted/queued/shed counters, shed-reason counters, per-class
// latency histograms, live queue depth, the degraded-response counter, the
// energy/cost account, and the admitted-then-dropped invariant counter
// (which must scrape as zero forever). Its collect hook copies them from
// the gateway under g.mu when reg is scraped. Advance and Admit take g.mu
// and then read the plant, whose lock (insure-gateway's lockedPlant) the
// plant's own hook holds, so this hook takes g.mu alone and never the
// plant's lock. Call it once, before serving.
func (g *Gateway) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &gwTelemetry{}
	for c := Class(0); c < NumClasses; c++ {
		lbl := telemetry.Label{Key: "class", Value: c.String()}
		t.admitted[c] = reg.Counter("insure_gateway_admitted_total",
			"Requests admitted (service began) by class.", lbl)
		t.queued[c] = reg.Counter("insure_gateway_queued_total",
			"Requests that entered the deadline queue by class.", lbl)
		t.shed[c] = reg.Counter("insure_gateway_shed_total",
			"Requests rejected with a retry-after hint by class.", lbl)
		t.latency[c] = reg.Histogram("insure_gateway_latency_seconds",
			"End-to-end simulated request latency (queue wait + service).",
			telemetry.DefTimeBuckets, lbl)
		t.lat[c] = t.latency[c].Buckets()
	}
	for why := ShedNone + 1; why < numShedReasons; why++ {
		t.shedBy[why] = reg.Counter("insure_gateway_shed_reason_total",
			"Requests shed by cause (mode, soc, capacity, deadline, retriage, drain).",
			telemetry.Label{Key: "reason", Value: why.String()})
	}
	t.degraded = reg.Counter("insure_gateway_degraded_total",
		"Responses served degraded (reduced payload) under emergency rungs.")
	t.admittedDropped = reg.Counter("insure_gateway_admitted_dropped_total",
		"Requests dropped after admission. Zero by construction; nonzero is a bug.")
	t.queueDepth = reg.Gauge("insure_gateway_queue_depth",
		"Requests currently waiting in the deadline queue, all classes.")
	t.energyWh = reg.Gauge("insure_gateway_energy_wh_total",
		"Metered serving energy across all admitted requests, watt-hours.")
	t.costUSD = reg.Gauge("insure_gateway_cost_usd_total",
		"Marginal energy cost of all admitted requests, dollars.")
	g.mu.Lock()
	g.tel = t
	g.mu.Unlock()
	reg.OnCollect("gateway", &g.mu, func() { t.collect(&g.stats) })
}

// collect is the gateway's collect hook: it copies the accounting into the
// counters and gauges, and the latency buckets into the histograms.
func (t *gwTelemetry) collect(s *Stats) {
	for c := Class(0); c < NumClasses; c++ {
		t.admitted[c].SetTotal(int64(s.Admitted[c]))
		t.queued[c].SetTotal(int64(s.QueuedEver[c]))
		t.shed[c].SetTotal(int64(s.Shed[c]))
		t.latency[c].Store(&t.lat[c])
	}
	for why := ShedNone + 1; why < numShedReasons; why++ {
		t.shedBy[why].SetTotal(int64(s.ShedReason[why]))
	}
	t.degraded.SetTotal(int64(s.Degraded))
	t.admittedDropped.SetTotal(int64(s.AdmittedDropped))
	t.queueDepth.Set(float64(s.QueueDepth))
	t.energyWh.Set(s.EnergyWh)
	t.costUSD.Set(s.CostUSD)
}
