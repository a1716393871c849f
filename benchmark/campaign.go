package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/plc"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// The campaign workload is the paper's paired-trace reproduction: every
// day trace is run once under InSURE and once under the baseline manager,
// all cells on the work-stealing pool at GOMAXPROCS workers.

var campaignSkies = []solar.Condition{solar.Sunny, solar.Cloudy, solar.Rainy}

// hoursPerYear is the mean Gregorian year.
const hoursPerYear = 8766.0

// campaignTraces generates the day traces: Table 6's energy budget for
// each sky, with seed+k shaping day k's clouds.
func campaignTraces(seed int64, perSky int) []*trace.Trace {
	var out []*trace.Trace
	for _, sky := range campaignSkies {
		for k := 0; k < perSky; k++ {
			out = append(out, trace.Table6Day(sky, seed+int64(k)))
		}
	}
	return out
}

// campaignCell builds cell i: trace i/2 under InSURE when i is even, under
// the baseline when i is odd.
func campaignCell(traces []*trace.Trace, i int, a *sim.Arena) (*sim.System, sim.Manager, error) {
	cfg := sim.DefaultConfig(traces[i/2])
	cfg.Arena = a
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		return nil, nil, err
	}
	if i%2 == 0 {
		return sys, core.New(core.DefaultConfig(), cfg.BatteryCount), nil
	}
	return sys, baseline.New(baseline.DefaultConfig()), nil
}

// campaignRuns lists the cells for sim.RunCampaign. Each cell's tick hook
// stamps the wall clock at every simulated hour into marks[i], and its
// span lands in spans[i].
func campaignRuns(traces []*trace.Trace, marks [][]int64, spans []time.Duration) []sim.CampaignRun {
	runs := make([]sim.CampaignRun, 2*len(traces))
	for i := range runs {
		i := i
		runs[i] = sim.CampaignRun{
			Name:      fmt.Sprintf("cell%02d", i),
			Transient: true,
			Setup: func(a *sim.Arena) (*sim.System, sim.Manager, error) {
				sys, mgr, err := campaignCell(traces, i, a)
				if err != nil {
					return nil, nil, err
				}
				start, end := sys.Span()
				spans[i] = end - start
				sys.SetTickHook(func(tod time.Duration) {
					if tod%time.Hour == 0 {
						marks[i] = append(marks[i], clock())
					}
				})
				return sys, mgr, nil
			},
		}
	}
	return runs
}

// pooledCampaign runs the cells on workers (0 = GOMAXPROCS) and returns
// the results with each cell's plant-hour marks and span.
func pooledCampaign(traces []*trace.Trace, workers int) ([]sim.Result, [][]int64, []time.Duration, error) {
	n := 2 * len(traces)
	marks := make([][]int64, n)
	spans := make([]time.Duration, n)
	res, err := sim.RunCampaign(context.Background(), workers, campaignRuns(traces, marks, spans))
	return res, marks, spans, err
}

func runCampaign(r *rep, seed int64, tr *tracer) error {
	traces := campaignTraces(seed, r.size.campaignSeeds)
	if tr != nil {
		return tracedCampaign(r, traces, tr)
	}
	r.startTimed()
	res, marks, spans, err := pooledCampaign(traces, 0)
	r.stopTimed()
	if err != nil {
		return err
	}
	for _, m := range marks {
		for j := 1; j < len(m); j++ {
			r.lat.add(m[j] - m[j-1])
		}
	}
	checkCampaign(r, traces, res, spans)
	return nil
}

// checkCampaign counts the cells, sums their plant time, folds every
// result into the digest and checks each one is physically possible.
func checkCampaign(r *rep, traces []*trace.Trace, res []sim.Result, spans []time.Duration) {
	r.attempted += int64(len(spans))
	r.fold("%x\n", resultsHash(res))
	if len(res) != len(spans) {
		r.failed += int64(len(spans))
		r.check(false, "campaign returned %d results for %d cells", len(res), len(spans))
		return
	}
	for i, x := range res {
		r.plantYears += spans[i].Hours() / hoursPerYear
		want := "InSURE"
		if i%2 == 1 {
			want = "baseline"
		}
		// Energy sums carry float rounding, so they get a 1 mWh tolerance.
		const tol = 1e-6
		supplyKWh := traces[i/2].TotalEnergy().KWh()
		ok := x.Manager == want &&
			x.UptimeFrac >= 0 && x.UptimeFrac <= 1 &&
			x.LoadKWh > 0 && x.ProcessedGB >= 0 &&
			x.HarvestedKWh >= -tol && x.CurtailedKWh >= -tol &&
			x.HarvestedKWh+x.CurtailedKWh <= supplyKWh+tol
		if !ok {
			r.failed++
			r.check(false, "cell %d (%s) result is not physical: %+v", i, want, x)
		}
	}
}

func resultsHash(res []sim.Result) uint64 {
	h := fnv.New64a()
	for i, x := range res {
		fmt.Fprintf(h, "%d %+v\n", i, x)
	}
	return h.Sum64()
}

// cellTrace is one campaign cell's share of the traced rep.
type cellTrace struct {
	tick, self, sample, actuate, insure, baseline, sink hist
	spans                                               []span
}

func (c *cellTrace) merge(o *cellTrace) {
	for _, p := range [][2]*hist{{&c.tick, &o.tick}, {&c.self, &o.self}, {&c.sample, &o.sample},
		{&c.actuate, &o.actuate}, {&c.insure, &o.insure}, {&c.baseline, &o.baseline}, {&c.sink, &o.sink}} {
		p[0].merge(p[1])
	}
	c.spans = append(c.spans, o.spans...)
}

// tickSpanEvery is the tick sampling interval for span trees; every tick
// still lands in the histograms.
const tickSpanEvery = 200

// tracedCampaign is the campaign's traced rep. It first runs the pool
// untraced at GOMAXPROCS workers and at one worker, for the pool speedup,
// the runtime's GC cost and scheduling waits, and the serial reference. Then it
// drives every cell's tick loop itself, timing each tick and the PLC,
// manager and workload calls inside it.
func tracedCampaign(r *rep, traces []*trace.Trace, tr *tracer) error {
	rt0 := readRuntime()
	t0 := clock()
	pooled, _, _, err := pooledCampaign(traces, 0)
	if err != nil {
		return err
	}
	poolNs := clock() - t0
	rt1 := readRuntime()
	t1 := clock()
	serial, _, _, err := pooledCampaign(traces, 1)
	if err != nil {
		return err
	}
	serialNs := clock() - t1
	r.check(resultsHash(serial) == resultsHash(pooled), "1-worker campaign differs from the pooled campaign")
	tr.set("campaign.sim.pool_speedup", float64(serialNs)/float64(poolNs))
	tr.set("campaign.runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(rt1.busyCPU()-rt0.busyCPU()))
	tr.set("campaign.runtime.sched_wait_us", meanSchedWait(rt0, rt1)*1e6)

	n := 2 * len(traces)
	res := make([]sim.Result, n)
	spans := make([]time.Duration, n)
	var mu sync.Mutex
	total := &cellTrace{}
	r.startTimed()
	err = sim.RunCells(context.Background(), 0, n, func(_ context.Context, i int, a *sim.Arena) error {
		sys, mgr, err := campaignCell(traces, i, a)
		if err != nil {
			return err
		}
		ct := traceCell(tr, sys, &mgr, i)
		start, end := sys.Span()
		spans[i] = end - start
		step := sys.Config().Step
		for k, tod := 0, start; tod < end; k, tod = k+1, tod+step {
			ct.tickAt(sys, mgr, tod, k%tickSpanEvery == 0)
		}
		res[i] = sys.Finish(mgr)
		mu.Lock()
		total.merge(&ct.cellTrace)
		mu.Unlock()
		return nil
	})
	r.stopTimed()
	if err != nil {
		return err
	}
	checkCampaign(r, traces, res, spans)
	r.check(resultsHash(res) == resultsHash(pooled), "traced campaign differs from the pooled campaign")

	tr.record(total.spans...)
	tr.set("campaign.sim.tick_ns.p50", total.tick.quantile(0.5))
	tr.set("campaign.sim.tick_self_ns.p50", total.self.quantile(0.5))
	tr.set("campaign.plc.sample_ns.p50", total.sample.quantile(0.5))
	tr.set("campaign.plc.actuate_ns.p50", total.actuate.quantile(0.5))
	tr.set("campaign.core.control_us.p50", total.insure.quantile(0.5)/1e3)
	tr.set("campaign.baseline.control_us.p50", total.baseline.quantile(0.5)/1e3)
	tr.set("campaign.workload.sink_tick_ns.p50", total.sink.quantile(0.5))
	return plantMicro(tr, traces[0])
}

// tracedCell wraps one cell's PLC hooks, manager and sink so every call
// inside a tick is timed. Managers scan the PLC inside their control pass,
// so calls nest: open holds the span IDs of the calls in progress, the
// tick's own first (0 when the tick is not sampled), and only calls made
// directly by the tick add to child, its children's time.
type tracedCell struct {
	cellTrace
	tr    *tracer
	lane  int
	child int64
	open  []int64
}

func (c *tracedCell) enter() int64 {
	var id int64
	if c.open[len(c.open)-1] != 0 {
		id = c.tr.id()
	}
	c.open = append(c.open, id)
	return clock()
}

func (c *tracedCell) exit(h *hist, name string, start int64) {
	d := clock() - start
	id := c.open[len(c.open)-1]
	c.open = c.open[:len(c.open)-1]
	h.add(d)
	if len(c.open) == 1 {
		c.child += d
	}
	if id != 0 {
		c.spans = append(c.spans, span{Name: name, Start: start, Dur: d, ID: id,
			Parent: c.open[len(c.open)-1], Lane: c.lane})
	}
}

// timed brackets calls as name, into h.
func (c *tracedCell) timed(h *hist, name string) bracket {
	return bracket{begin: c.enter, end: func(start int64) { c.exit(h, name, start) }}
}

func traceCell(tr *tracer, sys *sim.System, mgr *sim.Manager, lane int) *tracedCell {
	c := &tracedCell{tr: tr, lane: lane, open: []int64{0}}
	sample, actuate := sys.PLC.Sample, sys.PLC.Actuate
	sys.PLC.Sample = func(rf *plc.RegisterFile) {
		t := c.enter()
		sample(rf)
		c.exit(&c.sample, "plc.sample", t)
	}
	sys.PLC.Actuate = func(rf *plc.RegisterFile) {
		t := c.enter()
		actuate(rf)
		c.exit(&c.actuate, "plc.actuate", t)
	}
	if (*mgr).Name() == "InSURE" {
		*mgr = &timedManager{Manager: *mgr, bracket: c.timed(&c.insure, "core.control")}
	} else {
		*mgr = &timedManager{Manager: *mgr, bracket: c.timed(&c.baseline, "baseline.control")}
	}
	sys.Sink = &timedSink{Sink: sys.Sink, bracket: c.timed(&c.sink, "workload.sink_tick")}
	return c
}

// tickAt runs and times one tick; with sampled set it also records the
// tick's span tree.
func (c *tracedCell) tickAt(sys *sim.System, mgr sim.Manager, tod time.Duration, sampled bool) {
	var id int64
	if sampled {
		id = c.tr.id()
	}
	c.child = 0
	c.open = append(c.open[:0], id)
	t := clock()
	sys.Tick(tod, mgr)
	d := clock() - t
	c.tick.add(d)
	c.self.add(d - c.child)
	if sampled {
		c.spans = append(c.spans, span{Name: "sim.tick", Start: t, Dur: d, ID: id, Lane: c.lane})
	}
}
