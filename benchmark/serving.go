package main

import (
	"fmt"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/units"
)

// The serving workload replays the gateway load harness's saturating
// column against live plants: gateway.DefaultLoadConfig's sunny and storm
// days, two sites each, at 40 requests per second.
//
// The seed draws the request stream, not the weather. A storm day's shape
// decides how far ahead the gateway walks the forecast for every shed
// request's retry-after hint, and from one synthesized storm to the next
// that swings the cost of admission by a quarter, which would drown any
// change worth measuring. The days are the harness's own, from
// servingWeatherSeed.

// servingWeatherSeed synthesizes the sunny and storm days.
const servingWeatherSeed = 2015

// servingBaseQPS is each site's full capacity, the load harness's default,
// so 40 requests per second saturate the two sites.
const servingBaseQPS = 15.0

// servingMix is the load harness's class mix: per 10 arrivals, 1 critical,
// 6 standard and 3 best-effort.
var servingMix = [10]gateway.Class{
	gateway.Critical, gateway.Standard, gateway.Standard, gateway.BestEffort, gateway.Standard,
	gateway.Standard, gateway.BestEffort, gateway.Standard, gateway.Standard, gateway.BestEffort,
}

// classStream draws request classes independently from servingMix with a
// xorshift generator.
type classStream struct{ x uint64 }

func newClassStream(seed int64, lane int) *classStream {
	return &classStream{x: (uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(lane+1)*0xbf58476d1ce4e5b9) | 1}
}

func (s *classStream) next() gateway.Class {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	return servingMix[s.x%uint64(len(servingMix))]
}

// servingRegime is one regime's plants, their gateways and its requests.
type servingRegime struct {
	name    string
	fl      *sim.Fleet
	gws     []*gateway.Gateway
	classes *classStream
	plants  []*countingPlant // traced reps only
}

// buildServing assembles every regime the way insure-gateway assembles
// one site: the plant under an InSURE manager with the survival ladder,
// a gateway over it, and telemetry on all three.
func buildServing(seed int64, traced bool) ([]*servingRegime, error) {
	lc := gateway.DefaultLoadConfig(servingWeatherSeed)
	var out []*servingRegime
	for k, reg := range lc.Regimes {
		specs := make([]sim.FleetSpec, lc.Sites)
		mgrs := make([]*core.Manager, lc.Sites)
		for i := range specs {
			tr := trace.Synthesize(reg.Weather, servingWeatherSeed+int64(i), time.Second)
			if reg.PeakW > 0 {
				tr = tr.ScaleToPeak(units.Watt(reg.PeakW))
			}
			sc := sim.DefaultConfig(tr)
			sc.BatteryCount = lc.Batteries
			sc.ServerCount = lc.Servers
			if reg.InitialSoC > 0 {
				sc.InitialSoC = reg.InitialSoC
			}
			mc := core.DefaultConfig()
			mc.Survival = core.DefaultSurvivalConfig()
			mgrs[i] = core.New(mc, lc.Batteries)
			var sink sim.Sink = sim.NewSeismicSink()
			if i%2 == 1 {
				sink = sim.NewVideoSink()
			}
			specs[i] = sim.FleetSpec{Config: sc, Sink: sink, Manager: mgrs[i]}
		}
		fl, err := sim.NewFleet(specs)
		if err != nil {
			return nil, err
		}
		sr := &servingRegime{name: reg.Name, fl: fl, classes: newClassStream(seed, k)}
		for i := range specs {
			gc := lc.Gateway
			gc.BaseQPS = servingBaseQPS
			var plant gateway.Plant = gateway.SimPlant{Sys: fl.System(i), Mgr: mgrs[i]}
			if traced {
				cp := &countingPlant{Plant: plant}
				sr.plants = append(sr.plants, cp)
				plant = cp
			}
			gw := gateway.New(gc, plant)
			reg := telemetry.NewRegistry()
			fl.System(i).AttachTelemetry(reg)
			mgrs[i].AttachTelemetry(reg)
			gw.AttachTelemetry(reg)
			sr.gws = append(sr.gws, gw)
		}
		out = append(out, sr)
	}
	return out, nil
}

// offerSpanEvery samples requests for spans; every request still lands in
// the traced rep's Offer histogram.
const offerSpanEvery = 1000

// servingTrace is the traced rep's per-call timing.
type servingTrace struct {
	offer, advance, fleetTick hist
	spans                     []span
}

func runServing(r *rep, seed int64, tr *tracer) error {
	regimes, err := buildServing(seed, tr != nil)
	if err != nil {
		return err
	}
	var st *servingTrace
	if tr != nil {
		st = &servingTrace{}
	}
	offered := make([]int, len(regimes))
	results := make([][]sim.Result, len(regimes))
	r.startTimed()
	for i, sr := range regimes {
		offered[i], results[i] = replay(r, sr, tr, st)
	}
	r.stopTimed()

	var requests, shed, queued int
	for i, sr := range regimes {
		r.plantYears += sr.fl.SimulatedTime().Hours() / hoursPerYear
		got := 0
		for j, gw := range sr.gws {
			s := gw.Stats()
			got += s.Requests
			r.failed += int64(s.AdmittedDropped)
			r.check(s.AdmittedDropped == 0, "%s site %d dropped %d admitted requests", sr.name, j, s.AdmittedDropped)
			resolved := 0
			for c := range s.Admitted {
				resolved += s.Admitted[c] + s.Shed[c]
				shed += s.Shed[c]
				queued += s.QueuedEver[c]
			}
			r.check(resolved == s.Requests && s.QueueDepth == 0,
				"%s site %d: %d requests but %d admitted or shed, %d still queued", sr.name, j, s.Requests, resolved, s.QueueDepth)
			r.fold("%s %d %+v\n", sr.name, j, s)
		}
		r.check(got == offered[i], "%s: gateways saw %d requests, %d were offered", sr.name, got, offered[i])
		for j, res := range results[i] {
			r.fold("%s plant %d %+v\n", sr.name, j, res)
		}
		r.attempted += int64(offered[i])
		requests += offered[i]
	}
	if tr == nil {
		return nil
	}
	var states, forecasts int64
	for _, sr := range regimes {
		for _, p := range sr.plants {
			states += p.states
			forecasts += p.forecasts
		}
	}
	tr.record(st.spans...)
	tr.set("serving.gateway.offer_ns.p50", st.offer.quantile(0.5))
	tr.set("serving.gateway.offer_ns.p99", st.offer.quantile(0.99))
	tr.set("serving.gateway.advance_ns.p50", st.advance.quantile(0.5))
	tr.set("serving.sim.fleet_tick_us.p50", st.fleetTick.quantile(0.5)/1e3)
	tr.set("serving.gateway.state_calls_per_req", float64(states)/float64(requests))
	tr.set("serving.gateway.forecast_calls_per_req", float64(forecasts)/float64(requests))
	tr.set("serving.gateway.shed_frac", float64(shed)/float64(requests))
	tr.set("serving.gateway.queued_frac", float64(queued)/float64(requests))
	return nil
}

// replay drives one regime's day: every tick advances the plants and the
// gateways, then offers the requests that arrived in it, dealt round-robin
// across sites. One operation is one request's
// admission, timed as each tick's Offer calls together over their count;
// the traced rep also times every Offer alone. It returns the number
// offered and the plants' results.
func replay(r *rep, sr *servingRegime, tr *tracer, st *servingTrace) (int, []sim.Result) {
	lo, hi := sr.fl.Bounds()
	step := sr.fl.Step()
	var acc float64
	n := 0
	for k, tod := 0, lo; tod < hi; k, tod = k+1, tod+step {
		if st == nil {
			sr.fl.Tick(tod)
			for _, gw := range sr.gws {
				gw.Advance(tod)
			}
		} else {
			tracedStep(tr, st, sr, tod, k%tickSpanEvery == 0)
		}
		acc += r.size.servingQPS * step.Seconds()
		first := n
		batch := clock()
		for ; acc >= 1; acc-- {
			gw := sr.gws[n%len(sr.gws)]
			class := sr.classes.next()
			if st == nil {
				gw.Offer(tod, class)
			} else {
				t := clock()
				gw.Offer(tod, class)
				d := clock() - t
				st.offer.add(d)
				if n%offerSpanEvery == 0 {
					st.spans = append(st.spans, span{Name: "gateway.offer." + class.String(), Start: t, Dur: d, ID: tr.id()})
				}
			}
			n++
		}
		if n > first {
			r.lat.add((clock() - batch) / int64(n-first))
		}
	}
	res := sr.fl.Finish()
	for _, gw := range sr.gws {
		gw.Drain(hi)
	}
	return n, res
}

// tracedStep is one tick of replay with the fleet tick and every gateway's
// Advance timed; sampled steps also record their span tree.
func tracedStep(tr *tracer, st *servingTrace, sr *servingRegime, tod time.Duration, sampled bool) {
	var parent int64
	if sampled {
		parent = tr.id()
	}
	t0 := clock()
	sr.fl.Tick(tod)
	t1 := clock()
	st.fleetTick.add(t1 - t0)
	if sampled {
		st.spans = append(st.spans, span{Name: "sim.fleet_tick", Start: t0, Dur: t1 - t0, ID: tr.id(), Parent: parent})
	}
	for i, gw := range sr.gws {
		a := clock()
		gw.Advance(tod)
		b := clock()
		st.advance.add(b - a)
		if sampled {
			st.spans = append(st.spans, span{Name: fmt.Sprintf("gateway.advance.site%d", i), Start: a, Dur: b - a,
				ID: tr.id(), Parent: parent})
		}
	}
	if sampled {
		st.spans = append(st.spans, span{Name: "serving.step", Start: t0, Dur: clock() - t0, ID: parent})
	}
}
