// Command insure-gateway serves interactive queries against a live
// simulated plant with energy-aware admission control: the serving plane
// from internal/gateway fronting one InSURE-managed system. Requests are
// admitted, queued, or shed according to the plant's state of charge, the
// supply forecast, and the survivability ladder; every rejection carries a
// forecast-derived Retry-After, every admission an energy-price account.
//
// Usage:
//
//	insure-gateway -addr :8080 -weather sunny -accel 60
//	insure-gateway -addr :8080 -weather rainy -peak 250 -soc 0.48
//	insure-gateway -loadtest
//	insure-gateway -loadtest -loadtest-qps 5,15,40 -json sweep.json
//
// Live mode endpoints:
//
//	GET /query?class=critical|standard|besteffort — admit one request
//	GET /stats    — cumulative serving-plane accounting
//	GET /metrics  — Prometheus exposition (plant + gateway)
//	GET /healthz  — liveness; 503 "draining" at the Blackout rung
//
// -debug-addr, empty by default, serves net/http/pprof on its own listener,
// which shuts down with the query listener.
//
// The daemon simulates one plant-day at -accel× wall speed. When the day
// completes the plant state freezes (the gateway keeps serving against the
// final state); -loadtest is the batch alternative that replays a full
// QPS × weather sweep and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/genset"
	"insure/internal/plc"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-gateway: ")

	addr := flag.String("addr", ":8080", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "HTTP listen address for net/http/pprof (empty disables)")
	weather := flag.String("weather", "sunny", "sky model: sunny, cloudy, rainy")
	seed := flag.Int64("seed", 2015, "trace seed")
	peak := flag.Float64("peak", 0, "scale trace to this peak power (W); 0 = natural")
	initSoC := flag.Float64("soc", 0, "initial battery state of charge; 0 = sim default")
	batteries := flag.Int("batteries", 6, "battery units in the e-Buffer")
	servers := flag.Int("servers", 4, "server nodes in the cluster")
	survival := flag.Bool("survival", true, "arm the survivability ladder (the gateway's mode source)")
	gensetFit := flag.Bool("genset", false, "fit a diesel backup generator")
	accel := flag.Float64("accel", 60, "simulated seconds per wall second")
	baseQPS := flag.Float64("base-qps", 25, "full-capacity serving rate at ModeNormal")
	loadtest := flag.Bool("loadtest", false, "run the QPS x SoC load sweep instead of serving, print results, exit")
	ltQPS := flag.String("loadtest-qps", "5,15,40", "comma-separated offered QPS levels for -loadtest")
	ltSites := flag.Int("loadtest-sites", 2, "fleet sites for -loadtest")
	jsonOut := flag.String("json", "", "with -loadtest, also write the serving_plane JSON block to this path")
	flag.Parse()

	qps, err := checkFlags(*accel, *baseQPS, *initSoC, *peak, *ltQPS, *ltSites, *batteries, *servers)
	if err != nil {
		log.Fatal(err)
	}
	cond, err := parseWeather(*weather)
	if err != nil {
		log.Fatal(err)
	}

	if *loadtest {
		runLoadtest(cond, *seed, qps, *ltSites, *batteries, *servers, *baseQPS, *peak, *initSoC, *jsonOut)
		return
	}

	// Build the plant: one simulated system under the InSURE manager with
	// the survivability ladder armed (without it the gateway would never
	// leave ModeNormal and admission would be capacity-only).
	tr := trace.Synthesize(cond, *seed, time.Second)
	if *peak > 0 {
		tr = tr.ScaleToPeak(units.Watt(*peak))
	}
	scfg := sim.DefaultConfig(tr)
	scfg.BatteryCount = *batteries
	scfg.ServerCount = *servers
	if *initSoC > 0 {
		scfg.InitialSoC = *initSoC
	}
	if *gensetFit {
		scfg.Secondary = genset.New(genset.DieselParams())
	}
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		log.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	if *survival {
		mcfg.Survival = core.DefaultSurvivalConfig()
	}
	mgr := core.New(mcfg, *batteries)

	gcfg := gateway.DefaultConfig()
	gcfg.BaseQPS = *baseQPS
	sc := newSimClock(sys, mgr, gcfg)
	gw := sc.gw
	// The sim clock, readable from every HTTP goroutine.
	now := func() time.Duration { return time.Duration(sc.served.Load()) }

	// Tick loop: advance the simulation at accel× wall speed.
	go func() {
		wall := time.NewTicker(100 * time.Millisecond)
		defer wall.Stop()
		var due float64
		for range wall.C {
			due += *accel * 0.1
			for due >= sc.step.Seconds() {
				due -= sc.step.Seconds()
				sc.advance()
			}
		}
	}()

	srv := &gateway.Server{GW: gw, Now: now}
	mux := srv.Mux()
	mux.Handle("/metrics", sc.reg.MetricsHandler())
	mux.Handle("/healthz", sc.reg.HealthzHandler())

	d := &drainer{next: mux}
	listener, debug, err := listen(*addr, *debugAddr, d)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving plane on http://%s/query (weather %s, accel %.0fx, base %.0f qps)",
		listener.Addr(), *weather, *accel, *baseQPS)
	if debug != nil {
		log.Printf("pprof on http://%s/debug/pprof/", debug.Addr())
	}
	<-ctx.Done()
	err = d.drain(listener, gw, now(), drainGrace)
	if debug != nil {
		if derr := debug.Shutdown(); derr != nil {
			log.Printf("pprof listener: %v", derr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Print("signal received; drained and stopped")
}

// checkFlags refuses, before anything binds -addr, the numeric flags that
// would serve a frozen clock (-accel 0 or NaN), spin the tick loop
// (-accel +Inf), shed nearly everything (-base-qps NaN) or replay NaN rows
// (-loadtest-qps NaN), a NaN or negative -soc or -peak, where 0 keeps the
// default, and a plant or sweep with no site, no battery or no server, or
// more batteries than the panel's register map holds. It returns the
// -loadtest-qps levels.
func checkFlags(accel, baseQPS, soc, peak float64, ltQPS string, sites, batteries, servers int) ([]float64, error) {
	if !(accel > 0 && accel <= math.MaxFloat64) {
		return nil, fmt.Errorf("-accel %v: need a finite speed-up above 0", accel)
	}
	if !(baseQPS > 0 && baseQPS <= math.MaxFloat64) {
		return nil, fmt.Errorf("-base-qps %v: need a finite rate above 0", baseQPS)
	}
	if !(soc >= 0 && soc <= 1) {
		return nil, fmt.Errorf("-soc %v: need a state of charge in [0, 1], 0 for the default", soc)
	}
	if !(peak >= 0 && peak <= math.MaxFloat64) {
		return nil, fmt.Errorf("-peak %v: need a finite power of at least 0 W, 0 for the natural trace", peak)
	}
	if sites < 1 {
		return nil, fmt.Errorf("-loadtest-sites %d: need at least 1 site", sites)
	}
	if batteries < 1 || batteries > plc.MaxUnits {
		return nil, fmt.Errorf("-batteries %d: need 1..%d battery units", batteries, plc.MaxUnits)
	}
	if servers < 1 {
		return nil, fmt.Errorf("-servers %d: need at least 1 server", servers)
	}
	var qps []float64
	for _, part := range strings.Split(ltQPS, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(v > 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("-loadtest-qps %q: need finite rates above 0", part)
		}
		qps = append(qps, v)
	}
	return qps, nil
}

// listen binds the query plane on addr and, unless debugAddr is empty,
// net/http/pprof on debugAddr.
func listen(addr, debugAddr string, h http.Handler) (query, debug *telemetry.Server, err error) {
	query, err = telemetry.Listen(addr, h)
	if err != nil || debugAddr == "" {
		return query, nil, err
	}
	debug, err = telemetry.Listen(debugAddr, telemetry.DebugMux())
	if err != nil {
		_ = query.Shutdown() // nothing was served yet; the bind error is the one to report
		return nil, nil, err
	}
	return query, debug, nil
}

// drainGrace is how long a shutting-down gateway keeps answering — new
// queries get 503 + Retry-After instead of connection errors — before the
// listener closes. In-flight requests are always allowed to finish.
const drainGrace = 2 * time.Second

// drainRetrySeconds is the Retry-After hint handed to queries that arrive
// while the gateway is draining.
const drainRetrySeconds = 30

// drainer is the query plane's drain-on-SIGTERM, wrapped around the handler
// the gateway serves: once draining, /query answers 503 with a Retry-After
// instead of admitting, and /healthz answers 503 "draining" whatever the
// ladder rung, so a load balancer stops routing queries here.
type drainer struct {
	next     http.Handler
	draining atomic.Bool
}

func (d *drainer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		switch r.URL.Path {
		case "/query":
			w.Header().Set("Retry-After", strconv.Itoa(drainRetrySeconds))
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "{\n  \"status\": \"draining\"\n}\n")
			return
		}
	}
	d.next.ServeHTTP(w, r)
}

// drain shuts the serving plane down gracefully: admission stops at once —
// /query answers 503 with a Retry-After for one grace window — queued
// tickets are shed as ShedDrain, in-flight requests complete, and the
// listener closes.
func (d *drainer) drain(srv *telemetry.Server, gw *gateway.Gateway, now, grace time.Duration) error {
	d.draining.Store(true)
	gw.Drain(now)
	time.Sleep(grace)
	return srv.Shutdown()
}

// simClock is the daemon's simulated clock. It ticks the plant through its
// day, then keeps the gateway and the served clock moving on the frozen
// plant, so the token bucket still refills and queued tickets are still
// dispatched, expired or shed after the day ends.
type simClock struct {
	sys   *sim.System
	mgr   *core.Manager
	plant *lockedPlant
	gw    *gateway.Gateway
	reg   *telemetry.Registry

	tod, hi, step time.Duration
	// served is the clock admissions stamp requests with, read from every
	// HTTP goroutine.
	served atomic.Int64
}

// newSimClock wires the serving site at the start of its day: a gateway
// over the locked plant, and the plant, its manager and the gateway
// reporting to one registry, whose collect lock is the plant lock.
func newSimClock(sys *sim.System, mgr *core.Manager, gcfg gateway.Config) *simClock {
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	mgr.AttachTelemetry(reg)
	plant := &lockedPlant{inner: gateway.SimPlant{Sys: sys, Mgr: mgr}}
	reg.SetCollectLock(&plant.mu)
	gw := gateway.New(gcfg, plant)
	gw.AttachTelemetry(reg)
	lo, hi := sys.Span()
	c := &simClock{sys: sys, mgr: mgr, plant: plant, gw: gw, reg: reg, tod: lo, hi: hi, step: sys.Config().Step}
	c.served.Store(int64(lo))
	return c
}

// advance moves the simulation one step. Lock order is gateway.mu →
// plant.mu (Advance and Admit take the gateway lock, then read the plant),
// so the plant lock is released before Advance.
func (c *simClock) advance() {
	ticked := c.tod < c.hi
	if ticked {
		c.plant.mu.Lock()
		c.sys.Tick(c.tod, c.mgr)
		c.plant.mu.Unlock()
	}
	c.tod += c.step
	c.gw.Advance(c.tod)
	c.served.Store(int64(c.tod))
	c.reg.SetClock(c.tod)
	if ticked && c.tod >= c.hi {
		log.Printf("simulated day complete at %v; plant state frozen, still serving", c.tod)
	}
}

// lockedPlant serialises plant reads against the tick loop: the simulated
// System is not internally synchronised, and gateway admissions read it
// from HTTP goroutines while the tick loop mutates it. mu is also the
// registry's collect lock, so the plant's collect hook reads the plant
// under it when /metrics is scraped. The gateway's hook holds only the
// gateway lock, so no hook ever holds one of the two locks while taking
// the other.
type lockedPlant struct {
	mu    sync.Mutex
	inner gateway.SimPlant
}

func (p *lockedPlant) State(now time.Duration) gateway.State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inner.State(now)
}

func (p *lockedPlant) ForecastW(at time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inner.ForecastW(at)
}

func parseWeather(s string) (solar.Condition, error) {
	switch s {
	case "sunny":
		return solar.Sunny, nil
	case "cloudy":
		return solar.Cloudy, nil
	case "rainy":
		return solar.Rainy, nil
	}
	return solar.Sunny, fmt.Errorf("unknown weather %q", s)
}

// runLoadtest executes the sweep and prints the table BENCH.json records.
func runLoadtest(cond solar.Condition, seed int64, qps []float64, sites, batteries, servers int, baseQPS, peak, initSoC float64, jsonOut string) {
	cfg := gateway.DefaultLoadConfig(seed)
	cfg.Sites = sites
	cfg.QPS = qps
	cfg.Batteries = batteries
	cfg.Servers = servers
	cfg.Gateway.BaseQPS = baseQPS
	// -weather/-peak/-soc override the first regime when given explicitly;
	// the default sweep keeps both the sunny and storm regimes.
	if peak > 0 || initSoC > 0 || cond != solar.Sunny {
		cfg.Regimes = []gateway.Regime{{Name: cond.String(), Weather: cond, PeakW: peak, InitialSoC: initSoC}}
	}

	start := time.Now()
	sp, err := gateway.RunLoadTest(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving-plane sweep: %d sites, %.0f s span, %d requests replayed in %.1fs wall\n\n",
		sp.Sites, sp.SpanSeconds, sp.RequestsTotal, time.Since(start).Seconds())
	for _, rr := range sp.Regimes {
		fmt.Printf("%s:\n", rr.Name)
		fmt.Printf("  %8s %12s %9s %9s %9s %8s %8s %7s %7s %7s  %s\n",
			"qps", "req/day", "admitted", "queued", "shed", "p50 ms", "p99 ms", "soc", "minsoc", "Wh", "modes")
		for _, p := range rr.Points {
			fmt.Printf("  %8.0f %12.0f %9d %9d %9d %8.1f %8.1f %7.2f %7.2f %7.1f  %s\n",
				p.QPS, p.PerDay, p.Admitted, p.Queued, p.Shed, p.P50Ms, p.P99Ms,
				p.MeanSoC, p.MinSoC, p.EnergyWh, strings.Join(p.ModesSeen, ","))
			if p.AdmittedDropped != 0 {
				log.Fatalf("invariant violated: %d requests admitted then dropped", p.AdmittedDropped)
			}
		}
		fmt.Println()
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sp); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote serving_plane block to %s\n", jsonOut)
	}
}
