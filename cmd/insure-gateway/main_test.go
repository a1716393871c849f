package main

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/plc"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/telemetry/promtest"
	"insure/internal/trace"
)

// testGateway builds the minimal serving plane main wires: one simulated
// plant behind an admission gateway.
func testGateway(t *testing.T) *gateway.Gateway {
	t.Helper()
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Sunny, 1, time.Second))
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.New(core.DefaultConfig(), scfg.BatteryCount)
	return gateway.New(gateway.DefaultConfig(), gateway.SimPlant{Sys: sys, Mgr: mgr})
}

// TestServeGatewayGracefulShutdown drives the daemon's shutdown path: once
// the drain starts, new queries must get 503 + Retry-After while an
// in-flight request is allowed to finish, and once the grace window closes
// the listener must be gone.
func TestServeGatewayGracefulShutdown(t *testing.T) {
	gw := testGateway(t)

	arrived := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(arrived)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})

	d := &drainer{next: handler}
	srv, err := telemetry.Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr().String()

	// Park one request in flight, then start the drain as SIGTERM does.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slowDone <- 0
			return
		}
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	<-arrived
	done := make(chan error, 1)
	go func() { done <- d.drain(srv, gw, 0, time.Second) }()

	// Inside the grace window new queries are refused softly: 503 with a
	// Retry-After hint, not a connection error.
	var sawDrain bool
	deadline := time.Now().Add(900 * time.Millisecond)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/query")
		if err != nil {
			break // listener already closed; grace window missed
		}
		io.Copy(io.Discard, resp.Body)
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && retry != "" {
			sawDrain = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawDrain {
		t.Error("draining gateway never answered /query with 503 + Retry-After")
	}
	// /healthz turns 503 "draining" with the drain, whatever the wrapped
	// handler answers, so a load balancer stops routing queries here.
	if resp, err := http.Get(base + "/healthz"); err != nil {
		t.Errorf("/healthz during the drain: %v", err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"status": "draining"`) {
			t.Errorf("/healthz during the drain = %d %q, want 503 with status draining", resp.StatusCode, body)
		}
	}

	// The in-flight request must still complete.
	close(release)
	if code := <-slowDone; code != http.StatusOK {
		t.Errorf("in-flight request got %d, want 200", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get(base + "/query"); err == nil {
		t.Error("listener still accepting after shutdown completed")
	}
}

// TestLockedPlantSerializesReads reads the plant through lockedPlant from
// several goroutines, as concurrent admissions do, while the tick loop
// advances it under the same lock. Reads write caches: the sensor
// channels' decodes, the manager's MeanSoC memo, and either the forecast
// estimator's cached discount (ladder armed, the default) or, with no
// estimator (-survival=false), ForecastGen's last-seen SolarNow. Under
// -race this fails if any read path skips the lock.
func TestLockedPlantSerializesReads(t *testing.T) {
	for _, survival := range []bool{true, false} {
		scfg := sim.DefaultConfig(trace.Synthesize(solar.Cloudy, 1, time.Second))
		sys, err := sim.New(scfg, sim.NewSeismicSink())
		if err != nil {
			t.Fatal(err)
		}
		mcfg := core.DefaultConfig()
		if survival {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		mgr := core.New(mcfg, scfg.BatteryCount)
		plant := &lockedPlant{inner: gateway.SimPlant{Sys: sys, Mgr: mgr}}

		lo, _ := sys.Span()
		start := lo + 4*time.Hour
		done := make(chan struct{})
		go func() {
			defer close(done)
			for tod := start; tod < start+10*time.Minute; tod += scfg.Step {
				plant.mu.Lock()
				sys.Tick(tod, mgr)
				plant.mu.Unlock()
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if st := plant.State(start); st.SoC < 0 || st.SoC > 1 {
						t.Errorf("survival %v: mean SoC %v outside [0,1]", survival, st.SoC)
						return
					}
					plant.ForecastW(start + time.Hour)
				}
			}()
		}
		wg.Wait()
	}
}

// TestServingContinuesPastDayEnd steps the daemon's clock across the end of
// the simulated day. The plant freezes there, but the gateway keeps time: a
// ticket queued after the day ends must still resolve, and the queue must
// empty.
func TestServingContinuesPastDayEnd(t *testing.T) {
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Sunny, 1, time.Second))
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, scfg.BatteryCount)
	plant := &lockedPlant{inner: gateway.SimPlant{Sys: sys, Mgr: mgr}}
	gcfg := gateway.DefaultConfig()
	gcfg.BaseQPS = 5
	gw := gateway.New(gcfg, plant)

	_, hi := sys.Span()
	sc := &simClock{sys: sys, mgr: mgr, plant: plant, gw: gw, reg: telemetry.NewRegistry(),
		tod: hi - 3*scfg.Step, hi: hi, step: scfg.Step}
	for i := 0; i < 5; i++ {
		sc.advance()
	}
	now := time.Duration(sc.served.Load())

	// Spend the token bucket, then queue one request.
	var ticket *gateway.Ticket
	for i := 0; ticket == nil && i < 100; i++ {
		out, tk := gw.Admit(now, gateway.Critical)
		if out.Decision == gateway.Shed {
			t.Fatalf("request %d shed (%v) before the queue filled", i, out.Reason)
		}
		ticket = tk
	}
	if ticket == nil {
		t.Fatal("no request queued")
	}
	for i := 0; i < 10; i++ {
		sc.advance()
		select {
		case out := <-ticket.C:
			if d := gw.Stats().QueueDepth; d != 0 {
				t.Fatalf("ticket resolved %v but queue depth is %d", out.Decision, d)
			}
			return
		default:
		}
	}
	t.Fatalf("ticket queued at %v (day end %v) still unresolved at %v; queue depth %d",
		now, hi, time.Duration(sc.served.Load()), gw.Stats().QueueDepth)
}

// TestScrapeWhileTicking scrapes /metrics over and over while the daemon's
// clock ticks the plant and two goroutines admit requests, as the live
// daemon runs. Under -race it fails if a collect hook reads the plant or
// the gateway without the lock that guards it. Advance and Admit take the
// gateway lock and then the plant lock; a hook that held one of them while
// taking the other would deadlock against them, and promtest.Scrape fails
// on a scrape that does not answer within its deadline. Once everything
// stops, the scraped counters equal the gateway's own accounting.
func TestScrapeWhileTicking(t *testing.T) {
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Cloudy, 1, time.Second))
	scfg.InitialSoC = 0.35
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, scfg.BatteryCount)
	gcfg := gateway.DefaultConfig()
	gcfg.BaseQPS = 5
	sc := newSimClock(sys, mgr, gcfg)
	// A deadlocked scrape fails promtest.Scrape after its deadline, and
	// Shutdown closes the stuck connection after its own bound, so the test
	// fails instead of hanging.
	srv, err := telemetry.Listen("127.0.0.1:0", sc.reg.Mux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	url := "http://" + srv.Addr().String() + "/metrics"
	now := func() time.Duration { return time.Duration(sc.served.Load()) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sc.advance()
		}
	}()
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			classes := []gateway.Class{gateway.Critical, gateway.Standard, gateway.BestEffort}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := classes[i%len(classes)]
				if w == 0 {
					sc.gw.Offer(now(), c)
				} else {
					sc.gw.Admit(now(), c)
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		promtest.Scrape(t, url)
	}
	close(stop)
	wg.Wait()

	st := sc.gw.Stats()
	got := map[string]float64{}
	for _, s := range promtest.Scrape(t, url) {
		got[s.Name+promtest.LabelSig(s.Labels)] = s.Value
	}
	var served int
	for c := gateway.Class(0); c < gateway.NumClasses; c++ {
		served += st.Admitted[c]
		sig := promtest.LabelSig(map[string]string{"class": c.String()})
		if got["insure_gateway_admitted_total"+sig] != float64(st.Admitted[c]) ||
			got["insure_gateway_shed_total"+sig] != float64(st.Shed[c]) ||
			got["insure_gateway_latency_seconds_count"+sig] != float64(st.Admitted[c]) {
			t.Errorf("class %v: scraped admitted %v shed %v latency count %v, stats %+v", c,
				got["insure_gateway_admitted_total"+sig], got["insure_gateway_shed_total"+sig],
				got["insure_gateway_latency_seconds_count"+sig], st)
		}
	}
	if served == 0 {
		t.Fatal("no request was served")
	}
	if got["insure_gateway_queue_depth"] != float64(st.QueueDepth) {
		t.Errorf("scraped queue depth %v, stats %d", got["insure_gateway_queue_depth"], st.QueueDepth)
	}
	if want := sys.Bank.StoredEnergy(); got["insure_stored_watt_hours"] != float64(want) {
		t.Errorf("scraped stored energy %v, plant holds %v", got["insure_stored_watt_hours"], want)
	}
}

// TestCheckFlags pins the numeric flags insure-gateway refuses before it
// binds -addr, each with an error that names the flag: an -accel that
// freezes the clock (0, NaN) or spins the tick loop (+Inf), a -base-qps
// that is not a finite rate above 0, a NaN or negative -soc or -peak (0
// keeps the default), -loadtest-qps entries that are not finite rates
// above 0, and a -loadtest-sites, -batteries or -servers below 1 or, for
// -batteries, above the register map's plc.MaxUnits.
func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	def := flagValues{accel: 60, baseQPS: 25, ltQPS: "5,15,40", sites: 2, batteries: 6, servers: 4, survival: true}
	for _, tc := range []struct {
		name string
		edit func(*flagValues)
		bad  string // the flag the error must name; "" when accepted
	}{
		{"defaults", func(*flagValues) {}, ""},
		{"accel 0", func(f *flagValues) { f.accel = 0 }, "-accel"},
		{"accel NaN", func(f *flagValues) { f.accel = nan }, "-accel"},
		{"accel +Inf", func(f *flagValues) { f.accel = inf }, "-accel"},
		{"accel negative", func(f *flagValues) { f.accel = -60 }, "-accel"},
		{"accel 600", func(f *flagValues) { f.accel = 600 }, ""},
		{"base-qps NaN", func(f *flagValues) { f.baseQPS = nan }, "-base-qps"},
		{"base-qps 0", func(f *flagValues) { f.baseQPS = 0 }, "-base-qps"},
		{"base-qps +Inf", func(f *flagValues) { f.baseQPS = inf }, "-base-qps"},
		{"soc NaN", func(f *flagValues) { f.soc = nan }, "-soc"},
		{"soc negative", func(f *flagValues) { f.soc = -0.1 }, "-soc"},
		{"soc above 1", func(f *flagValues) { f.soc = 1.5 }, "-soc"},
		{"soc 0.48", func(f *flagValues) { f.soc = 0.48 }, ""},
		{"peak NaN", func(f *flagValues) { f.peak = nan }, "-peak"},
		{"peak negative", func(f *flagValues) { f.peak = -250 }, "-peak"},
		{"peak +Inf", func(f *flagValues) { f.peak = inf }, "-peak"},
		{"peak 250", func(f *flagValues) { f.peak = 250 }, ""},
		{"loadtest-qps NaN", func(f *flagValues) { f.ltQPS = "NaN" }, "-loadtest-qps"},
		{"loadtest-qps +Inf", func(f *flagValues) { f.ltQPS = "5,+Inf" }, "-loadtest-qps"},
		{"loadtest-qps 0", func(f *flagValues) { f.ltQPS = "0,15" }, "-loadtest-qps"},
		{"loadtest-qps empty entry", func(f *flagValues) { f.ltQPS = "5,,40" }, "-loadtest-qps"},
		{"loadtest-qps word", func(f *flagValues) { f.ltQPS = "fast" }, "-loadtest-qps"},
		{"loadtest-sites 0", func(f *flagValues) { f.sites = 0 }, "-loadtest-sites"},
		{"loadtest-sites negative", func(f *flagValues) { f.sites = -3 }, "-loadtest-sites"},
		{"loadtest-sites 1", func(f *flagValues) { f.sites = 1 }, ""},
		{"batteries 0", func(f *flagValues) { f.batteries = 0 }, "-batteries"},
		{"batteries negative", func(f *flagValues) { f.batteries = -6 }, "-batteries"},
		{"batteries MaxUnits", func(f *flagValues) { f.batteries = plc.MaxUnits }, ""},
		{"batteries above MaxUnits", func(f *flagValues) { f.batteries = plc.MaxUnits + 1 }, "-batteries"},
		{"servers 0", func(f *flagValues) { f.servers = 0 }, "-servers"},
		{"servers negative", func(f *flagValues) { f.servers = -4 }, "-servers"},
		{"servers 1", func(f *flagValues) { f.servers = 1 }, ""},
		{"genset live", func(f *flagValues) { f.genset = true }, ""},
		{"survival=false live", func(f *flagValues) { f.survival = false }, ""},
		{"loadtest", func(f *flagValues) { f.loadtest = true }, ""},
		{"genset with loadtest", func(f *flagValues) { f.loadtest, f.genset = true, true }, "-genset"},
		{"survival=false with loadtest", func(f *flagValues) { f.loadtest, f.survival = true, false }, "-survival=false"},
	} {
		f := def
		tc.edit(&f)
		qps, err := checkFlags(f)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: %v, want accepted", tc.name, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.bad)
		case tc.bad == "" && len(qps) != len(strings.Split(f.ltQPS, ",")):
			t.Errorf("%s: -loadtest-qps %q parsed to %v", tc.name, f.ltQPS, qps)
		}
	}
}

// TestDebugAddrServesPprof binds the query plane with -debug-addr set:
// pprof answers on the debug listener and not on the query mux. With
// -debug-addr empty no debug listener is bound.
func TestDebugAddrServesPprof(t *testing.T) {
	mux := (&gateway.Server{GW: testGateway(t), Now: func() time.Duration { return 0 }}).Mux()
	query, debug, err := listen("127.0.0.1:0", "127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer query.Shutdown()
	defer debug.Shutdown()
	for _, c := range []struct {
		srv  *telemetry.Server
		want int
	}{{debug, http.StatusOK}, {query, http.StatusNotFound}} {
		resp, err := http.Get("http://" + c.srv.Addr().String() + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want || (c.want == http.StatusOK && !strings.Contains(string(body), "goroutine")) {
			t.Errorf("GET %s/debug/pprof/ = %d, want %d", c.srv.Addr(), resp.StatusCode, c.want)
		}
	}

	q2, d2, err := listen("127.0.0.1:0", "", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Shutdown()
	if d2 != nil {
		t.Errorf("empty -debug-addr bound a debug listener on %s", d2.Addr())
	}
}
