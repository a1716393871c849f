package gateway

import (
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// TestOfferAdvanceAllocFree pins steady-state admission at zero
// allocations: per simulated second one PLC scan moves the plant's
// readings, Advance refills and dispatches, and twice the base capacity is
// offered, so requests are served at once, queued, served off the queue,
// and shed by capacity and by mode with retry-after walks.
func TestOfferAdvanceAllocFree(t *testing.T) {
	scfg := sim.DefaultConfig(trace.Synthesize(solar.Sunny, 2015, time.Second))
	// A drained bank puts the ladder in Conservative by 9 h, where
	// best-effort requests shed by mode with a retry-after walk.
	scfg.InitialSoC = 0.3
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	mgr := core.New(mcfg, scfg.BatteryCount)
	lo, _ := sys.Span()
	tod := lo
	for ; tod < 9*time.Hour; tod += scfg.Step {
		sys.Tick(tod, mgr)
	}

	cfg := DefaultConfig()
	cfg.BaseQPS = 10
	gw := New(cfg, SimPlant{Sys: sys, Mgr: mgr})
	gw.AttachTelemetry(telemetry.NewRegistry())
	mix := 0
	second := func() {
		sys.PLC.ScanNow()
		gw.Advance(tod)
		for i := 0; i < 2*int(cfg.BaseQPS); i++ {
			gw.Offer(tod, classMix[mix%len(classMix)])
			mix++
		}
		tod += scfg.Step
	}
	for i := 0; i < 600; i++ {
		second()
	}
	if n := testing.AllocsPerRun(1000, second); n != 0 {
		t.Fatalf("steady-state Offer/Advance allocates %.2f times per simulated second, want 0", n)
	}
	st := gw.Stats()
	checkBalance(t, st)
	var served, queued, shed int
	for c := Class(0); c < NumClasses; c++ {
		served += st.Admitted[c]
		queued += st.QueuedEver[c]
		shed += st.Shed[c]
	}
	if served == 0 || queued == 0 || st.ShedReason[ShedCapacity] == 0 || st.ShedReason[ShedMode] == 0 {
		t.Fatalf("churn missed a path: served %d, queued %d, shed %d by reason %v", served, queued, shed, st.ShedReason)
	}
}
