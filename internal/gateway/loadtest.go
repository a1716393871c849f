package gateway

import (
	"fmt"
	"sort"
	"time"

	"insure/internal/core"
	"insure/internal/metrics"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
)

// This file is the serving-plane load harness: it replays a deterministic
// interactive request stream — millions of requests per simulated day —
// against a live sim.Fleet and records how admission, queueing delay, and
// tail latency move with offered QPS and the plant's energy state. The
// sweep output lands in BENCH.json as the `serving_plane` block
// (cmd/insure-bench) so the latency/energy trade-off is pinned alongside
// the engine throughput numbers.

// SimPlant adapts one simulated plant (System + its InSURE manager) to the
// gateway's Plant interface. State, its forecast generation and the
// forecast all come from the manager's energy-outlook surface
// (core/outlook.go), so the gateway admits against exactly what the
// plant's own controller believes.
type SimPlant struct {
	Sys *sim.System
	Mgr *core.Manager
}

func (p SimPlant) State(now time.Duration) State {
	return State{Mode: p.Mgr.Mode(), SoC: p.Mgr.MeanSoC(p.Sys), Gen: p.Mgr.ForecastGen(p.Sys)}
}

func (p SimPlant) ForecastW(at time.Duration) float64 {
	return p.Mgr.ForecastSupplyW(p.Sys, at)
}

// Regime is one energy scenario the sweep runs under.
type Regime struct {
	// Name labels the regime in BENCH.json ("sunny", "storm", ...).
	Name string
	// Weather picks the synthesized solar day.
	Weather solar.Condition
	// PeakW rescales the trace's peak; 0 keeps the natural synthesis.
	PeakW float64
	// InitialSoC seeds the battery bank (0 = sim default 0.5).
	InitialSoC float64
}

// LoadConfig shapes one sweep.
type LoadConfig struct {
	Seed  int64
	Sites int
	// QPS are the fleet-wide offered rates swept, requests/second spread
	// round-robin across sites.
	QPS       []float64
	Regimes   []Regime
	Batteries int
	Servers   int
	// Gateway tunes each site's gateway; zero fields take serving-plane
	// defaults, except BaseQPS which defaults to 15/site here so the top
	// sweep rate saturates capacity and the latency knee is visible.
	Gateway Config
}

// DefaultLoadConfig is the sweep cmd/insure-bench records: three offered
// rates (the top one ~3.5M requests/day) under a sunny day that holds
// ModeNormal and a storm day that walks the ladder down.
func DefaultLoadConfig(seed int64) LoadConfig {
	return LoadConfig{
		Seed:  seed,
		Sites: 2,
		QPS:   []float64{5, 15, 40},
		Regimes: []Regime{
			{Name: "sunny", Weather: solar.Sunny, InitialSoC: 0.55},
			{Name: "storm", Weather: solar.Rainy, PeakW: 250, InitialSoC: 0.48},
		},
		Batteries: 6,
		Servers:   4,
	}
}

// LoadPoint is one (regime, QPS) cell of the sweep.
type LoadPoint struct {
	QPS    float64 `json:"qps"`
	PerDay float64 `json:"requests_per_day"` // offered rate extrapolated to 24h

	Requests        int `json:"requests"`
	Admitted        int `json:"admitted"`
	Queued          int `json:"queued_ever"`
	Shed            int `json:"shed"`
	Degraded        int `json:"degraded"`
	AdmittedDropped int `json:"admitted_dropped"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	MeanSoC   float64  `json:"mean_soc"`
	MinSoC    float64  `json:"min_soc"`
	ModesSeen []string `json:"modes_seen"`

	EnergyWh float64 `json:"energy_wh"`
	CostUSD  float64 `json:"cost_usd"`
}

// RegimeResult is the sweep under one energy regime.
type RegimeResult struct {
	Name   string      `json:"name"`
	Points []LoadPoint `json:"points"`
}

// ServingPlane is the BENCH.json `serving_plane` block.
type ServingPlane struct {
	Sites         int            `json:"sites"`
	SpanSeconds   float64        `json:"span_seconds"`
	RequestsTotal int            `json:"requests_total"`
	Regimes       []RegimeResult `json:"regimes"`
}

// RunLoadTest executes the full sweep: for every regime × QPS cell it
// builds a fresh fleet, replays the deterministic request stream over the
// fleet's whole day span, and records latency percentiles, shed counts,
// SoC excursion, the set of ladder rungs visited, and the metered energy
// bill. Deterministic: same config, same numbers.
func RunLoadTest(cfg LoadConfig) (*ServingPlane, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 2
	}
	if len(cfg.QPS) == 0 {
		cfg.QPS = []float64{5, 15, 40}
	}
	if len(cfg.Regimes) == 0 {
		cfg.Regimes = DefaultLoadConfig(cfg.Seed).Regimes
	}
	if cfg.Batteries <= 0 {
		cfg.Batteries = 6
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 4
	}
	if cfg.Gateway.BaseQPS <= 0 {
		cfg.Gateway.BaseQPS = 15
	}

	out := &ServingPlane{Sites: cfg.Sites}
	for _, reg := range cfg.Regimes {
		rr := RegimeResult{Name: reg.Name}
		for _, qps := range cfg.QPS {
			pt, span, err := runLoadPoint(cfg, reg, qps)
			if err != nil {
				return nil, fmt.Errorf("gateway: loadtest %s @ %g qps: %w", reg.Name, qps, err)
			}
			out.SpanSeconds = span.Seconds()
			out.RequestsTotal += pt.Requests
			rr.Points = append(rr.Points, pt)
		}
		out.Regimes = append(out.Regimes, rr)
	}
	return out, nil
}

// classMix is the rotating request mix: per 10 arrivals, 1 critical,
// 6 standard, 3 best-effort.
var classMix = [10]Class{
	Critical, Standard, Standard, BestEffort, Standard,
	Standard, BestEffort, Standard, Standard, BestEffort,
}

// loadFleet builds one regime's plants: cfg.Sites sites over the regime's
// synthesized day, each under an InSURE manager with the survival ladder,
// alternating seismic and video sinks. It returns the fleet and the
// managers the sites' gateways read.
func loadFleet(cfg LoadConfig, reg Regime) (*sim.Fleet, []*core.Manager, error) {
	specs := make([]sim.FleetSpec, cfg.Sites)
	mgrs := make([]*core.Manager, cfg.Sites)
	for i := range specs {
		tr := trace.Synthesize(reg.Weather, cfg.Seed+int64(i), time.Second)
		if reg.PeakW > 0 {
			tr = tr.ScaleToPeak(units.Watt(reg.PeakW))
		}
		sc := sim.DefaultConfig(tr)
		sc.BatteryCount = cfg.Batteries
		sc.ServerCount = cfg.Servers
		if reg.InitialSoC > 0 {
			sc.InitialSoC = reg.InitialSoC
		}
		mc := core.DefaultConfig()
		mc.Survival = core.DefaultSurvivalConfig()
		mgrs[i] = core.New(mc, cfg.Batteries)
		var sink sim.Sink
		if i%2 == 0 {
			sink = sim.NewSeismicSink()
		} else {
			sink = sim.NewVideoSink()
		}
		specs[i] = sim.FleetSpec{Config: sc, Sink: sink, Manager: mgrs[i]}
	}
	fl, err := sim.NewFleet(specs)
	if err != nil {
		return nil, nil, err
	}
	return fl, mgrs, nil
}

func runLoadPoint(cfg LoadConfig, reg Regime, qps float64) (LoadPoint, time.Duration, error) {
	fl, mgrs, err := loadFleet(cfg, reg)
	if err != nil {
		return LoadPoint{}, 0, err
	}

	lat := metrics.NewSeries()
	gws := make([]*Gateway, cfg.Sites)
	for i := range gws {
		gc := cfg.Gateway
		gc.LatencySink = func(_ Class, ms float64) { lat.Add(ms) }
		gws[i] = New(gc, SimPlant{Sys: fl.System(i), Mgr: mgrs[i]})
	}

	lo, hi := fl.Bounds()
	step := fl.Step()
	soc := metrics.NewSeries()
	modes := map[string]bool{}

	// Deterministic arrivals: an accumulator integrates the offered rate;
	// each carried-over unit is one request, dealt round-robin across sites
	// with the rotating class mix. No RNG — same sweep, same stream.
	var acc float64
	site, mix := 0, 0
	for tod := lo; tod < hi; tod += step {
		fl.Tick(tod)
		for i, gw := range gws {
			gw.Advance(tod)
			st := gws[i].plant.State(tod)
			modes[st.Mode.String()] = true
			if tod%(30*time.Second) == 0 {
				soc.Add(st.SoC)
			}
		}
		acc += qps * step.Seconds()
		for acc >= 1 {
			acc--
			gws[site%cfg.Sites].Offer(tod, classMix[mix%len(classMix)])
			site++
			mix++
		}
	}
	fl.Finish()
	for _, gw := range gws {
		gw.Drain(hi)
	}

	pt := LoadPoint{
		QPS:    qps,
		PerDay: qps * 86400,
	}
	for _, gw := range gws {
		st := gw.Stats()
		pt.Requests += st.Requests
		pt.Degraded += st.Degraded
		pt.AdmittedDropped += st.AdmittedDropped
		pt.EnergyWh += st.EnergyWh
		pt.CostUSD += st.CostUSD
		for c := Class(0); c < NumClasses; c++ {
			pt.Admitted += st.Admitted[c]
			pt.Queued += st.QueuedEver[c]
			pt.Shed += st.Shed[c]
		}
	}
	if lat.Count() > 0 {
		pt.P50Ms = lat.Percentile(50)
		pt.P99Ms = lat.Percentile(99)
	}
	pt.MeanSoC = soc.Mean()
	if v, ok := soc.Min(); ok {
		pt.MinSoC = v
	}
	for m := range modes {
		pt.ModesSeen = append(pt.ModesSeen, m)
	}
	sort.Strings(pt.ModesSeen)
	return pt, hi - lo, nil
}
