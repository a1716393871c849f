package sim

import (
	"insure/internal/modbus"
	"insure/internal/telemetry"
	"insure/internal/workload"
)

// telemetryHooks holds the plant's instruments, resolved once in
// AttachTelemetry. The gauges are set by the plant's collect hook, publish,
// when the registry is scraped; the tick itself only advances the registry
// clock and, at their event sites, the brownout and deficit counters — so
// the zero-alloc tick invariant covers an instrumented system too (see
// TestTickWithTelemetryAllocFree).
type telemetryHooks struct {
	reg *telemetry.Registry

	solar  *telemetry.Gauge
	load   *telemetry.Gauge
	stored *telemetry.Gauge

	vmsSaved *telemetry.Gauge
	vmsLost  *telemetry.Gauge

	// Workload-queue visibility: the shedding decisions the survivability
	// layer takes are only observable if the queues they starve are too.
	// Exactly one pair is non-nil, matching the sink the system runs.
	streamBacklog *telemetry.Gauge
	streamDropped *telemetry.Gauge
	batchBacklog  *telemetry.Gauge
	batchLatency  *telemetry.Gauge

	streamQ *workload.StreamQueue
	batchQ  *workload.BatchQueue

	brownouts    *telemetry.Counter
	deficitTicks *telemetry.Counter
}

// AttachTelemetry registers the plant's instruments on reg, the panel's
// among them (plc.Panel.AttachTelemetry), and installs the plant's collect
// hook, which sets the gauges from the plant whenever reg is scraped.
// Counters advance at the event sites in Tick. The hook runs under reg's
// collect lock, so a program that scrapes reg while it ticks must tick
// under that lock (telemetry.Registry.SetCollectLock); one that scrapes
// between its own ticks needs none. Attaching another System to reg replaces the hook:
// a registry reports one plant, the newest. Call it once per System,
// before the first Tick.
func (s *System) AttachTelemetry(reg *telemetry.Registry) {
	t := &telemetryHooks{reg: reg}
	s.Panel.AttachTelemetry(reg)
	t.solar = reg.Gauge("insure_supply_watts",
		"Renewable supply this tick (solar plus auxiliary), watts.")
	t.load = reg.Gauge("insure_load_watts",
		"Cluster draw this tick, watts.")
	t.stored = reg.Gauge("insure_stored_watt_hours",
		"Energy held in the battery bank, watt-hours.")
	t.vmsSaved = reg.Gauge("insure_vm_checkpoints_completed",
		"VM images whose checkpoint completed before power-off, lifetime total.")
	t.vmsLost = reg.Gauge("insure_vms_lost",
		"VMs destroyed by power loss before their state was checkpointed, lifetime total.")
	switch sink := s.Sink.(type) {
	case *StreamSink:
		t.streamQ = sink.Queue
		t.streamBacklog = reg.Gauge("insure_stream_backlog_gb",
			"Stream data waiting for service, gigabytes.")
		t.streamDropped = reg.Gauge("insure_stream_dropped_gb",
			"Stream data lost to buffer overflow, gigabytes, lifetime total.")
	case *BatchSink:
		t.batchQ = sink.Queue
		t.batchBacklog = reg.Gauge("insure_batch_backlog_gb",
			"Unprocessed batch job data, gigabytes.")
		t.batchLatency = reg.Gauge("insure_batch_latency_minutes",
			"Mean arrival-to-completion latency of finished batch jobs, minutes.")
	}
	t.brownouts = reg.Counter("insure_brownouts_total",
		"Forced cluster shutdowns from sustained supply collapse.")
	t.deficitTicks = reg.Counter("insure_power_deficit_ticks_total",
		"Ticks in which the deficit went at least 5% unserved (hold-up riding).")

	// A fieldbus control plane brings the Modbus client's transaction and
	// fault counters along. Attach the remote panel before the telemetry
	// for these to appear.
	if c, ok := s.remote.(*modbus.Client); ok {
		c.RegisterTelemetry(reg)
	}

	// A fitted backup generator brings its own instruments (genset package).
	if s.Secondary != nil {
		s.Secondary.AttachTelemetry(reg)
	}

	s.tel = t
	reg.OnCollect("plant", nil, func() { t.publish(s) })
}

// publish is the plant's collect hook: it mirrors the plant as the last
// tick left it into the gauges, the panel's included.
func (t *telemetryHooks) publish(s *System) {
	s.Panel.Publish()
	t.solar.Set(float64(s.SolarNow()))
	t.load.Set(float64(s.LoadPower))
	t.stored.Set(float64(s.Bank.StoredEnergy()))
	t.vmsSaved.Set(float64(s.Cluster.VMsSaved()))
	t.vmsLost.Set(float64(s.Cluster.VMsLost()))
	if t.streamQ != nil {
		t.streamBacklog.Set(t.streamQ.Backlog())
		t.streamDropped.Set(t.streamQ.DroppedGB())
	}
	if t.batchQ != nil {
		t.batchBacklog.Set(t.batchQ.PendingGB())
		t.batchLatency.Set(t.batchQ.MeanLatency().Minutes())
	}
}
