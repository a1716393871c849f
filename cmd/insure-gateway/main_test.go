package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/gateway"
	"insure/internal/sim"
	"insure/internal/solar"
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

// TestServeGatewayGracefulShutdown drives the daemon's shutdown path: after
// the signal context is cancelled, new queries must get 503 + Retry-After
// while an in-flight request is allowed to finish, and once the grace window
// closes the listener must be gone.
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveGateway(ctx, ln, handler, gw, func() time.Duration { return 0 }, time.Second)
	}()

	// Park one request in flight, then deliver the "signal".
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
	cancel()

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

	// The in-flight request must still complete.
	close(release)
	if code := <-slowDone; code != http.StatusOK {
		t.Errorf("in-flight request got %d, want 200", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("serveGateway: %v", err)
	}
	if _, err := http.Get(base + "/query"); err == nil {
		t.Error("listener still accepting after shutdown completed")
	}
}

// TestLockedPlantSerializesReads reads the plant through lockedPlant from
// several goroutines, as concurrent admissions do, while the tick loop
// advances it under the same lock. Reads write the sensor channels' decode
// caches, so under -race this fails if any read path skips the lock.
func TestLockedPlantSerializesReads(t *testing.T) {
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Cloudy, 1, time.Second))
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
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
					t.Errorf("mean SoC %v outside [0,1]", st.SoC)
					return
				}
				plant.ForecastW(start + time.Hour)
			}
		}()
	}
	wg.Wait()
}
