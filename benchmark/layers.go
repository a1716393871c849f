package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/trace"
)

// runtimeCounters are the Go runtime's cumulative CPU accounts and its
// histogram of how long runnable goroutines waited to run.
type runtimeCounters struct {
	gcCPU, userCPU float64 // seconds
	schedWait      *metrics.Float64Histogram
}

func (c runtimeCounters) busyCPU() float64 { return c.gcCPU + c.userCPU }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64Histogram()}
}

// meanSchedWait is the mean time, in seconds, that goroutines made
// runnable between readings a and b waited to run, each wait taken at its
// bucket's midpoint (its finite edge for an open-ended bucket).
func meanSchedWait(a, b runtimeCounters) float64 {
	var n, sum float64
	for i, c := range b.schedWait.Counts {
		d := float64(c - a.schedWait.Counts[i])
		lo, hi := b.schedWait.Buckets[i], b.schedWait.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, 0) {
			mid = hi
		} else if math.IsInf(hi, 0) {
			mid = lo
		}
		n += d
		sum += d * mid
	}
	return ratio(sum, n)
}

// perCallNs times f in blocks and returns the median block's cost per
// call, which shrugs off a block that a preemption or GC landed in.
func perCallNs(blocks int, f func()) float64 {
	const calls = 256
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		t := clock()
		for i := 0; i < calls; i++ {
			f()
		}
		per = append(per, float64(clock()-t)/calls)
	}
	return median(per)
}

// plantMicro measures the tick's building blocks by calling them directly
// on a standalone 6-unit plant, and counts heap allocations per tick over
// one full day of a plant under InSURE.
func plantMicro(tr *tracer, day *trace.Trace) error {
	const blocks = 50
	bank, err := battery.NewBank(battery.DefaultParams(), 6, 0.5)
	if err != nil {
		return err
	}
	all := []int{0, 1, 2, 3, 4, 5}
	tr.set("campaign.battery.rest_all_ns", perCallNs(blocks, func() { bank.RestAll(time.Second) }))
	// Alternate charge and discharge blocks so the bank stays mid-charge.
	var charge, discharge []float64
	for b := 0; b < blocks; b++ {
		charge = append(charge, perCallNs(1, func() { bank.ChargeSet(all, 100, time.Second) }))
		discharge = append(discharge, perCallNs(1, func() { bank.DischargeSet(all, 100, time.Second) }))
	}
	tr.set("campaign.battery.charge_set_ns", median(charge))
	tr.set("campaign.battery.discharge_set_ns", median(discharge))

	fabric := relay.NewFabric(6)
	tr.set("campaign.relay.fabric_tick_ns", perCallNs(blocks, func() { fabric.Tick(time.Second) }))

	cfg := sim.DefaultConfig(day)
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		return err
	}
	tr.set("campaign.plc.scan_ns", perCallNs(blocks, sys.PLC.ScanNow))

	sys, err = sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		return err
	}
	mgr := core.New(core.DefaultConfig(), cfg.BatteryCount)
	start, end := sys.Span()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks := 0
	for tod := start; tod < end; tod += cfg.Step {
		sys.Tick(tod, mgr)
		ticks++
	}
	runtime.ReadMemStats(&after)
	tr.set("campaign.sim.allocs_per_tick", float64(after.Mallocs-before.Mallocs)/float64(ticks))
	return nil
}
