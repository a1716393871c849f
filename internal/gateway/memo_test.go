package gateway

import (
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
)

// memoSite is one plant at a drained bank, so best-effort requests shed
// with a forecast hint (by SoC, or by mode once the ladder steps down),
// behind a gateway that admits against it.
func memoSite(t *testing.T, weather solar.Condition, mcfg core.Config) (*sim.System, *core.Manager, *Gateway, SimPlant) {
	t.Helper()
	scfg := sim.DefaultConfig(trace.Synthesize(weather, 2015, time.Second))
	scfg.InitialSoC = 0.3
	sys, err := sim.New(scfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.New(mcfg, scfg.BatteryCount)
	plant := SimPlant{Sys: sys, Mgr: mgr}
	return sys, mgr, New(DefaultConfig(), plant), plant
}

// survivalConfig arms the ladder, and with it the forecast estimator.
func survivalConfig() core.Config {
	mcfg := core.DefaultConfig()
	mcfg.Survival = core.DefaultSurvivalConfig()
	return mcfg
}

// shedHint offers one best-effort request at sim time now and, when it is
// shed with a forecast hint, checks the hint against a fresh walk of the
// plant's forecast. It reports the hint, or 0 for any other outcome.
func shedHint(t *testing.T, gw *Gateway, plant SimPlant, now time.Duration) time.Duration {
	t.Helper()
	out := gw.Offer(now, BestEffort)
	if out.Decision != Shed || (out.Reason != ShedMode && out.Reason != ShedSoC) {
		return 0
	}
	if want := walkRetry(plant, now); out.RetryAfter != want {
		t.Fatalf("hint at %v = %v, a fresh walk gives %v", now, out.RetryAfter, want)
	}
	return out.RetryAfter
}

// TestRetryMemoExactAcrossTick replays insure-gateway's clock over a
// cloudy day: each step ticks the plant, then advances the gateway, and
// admissions that land between the two stamp the gateway's old clock
// against the plant that has already ticked. The hint memo keys on the
// clock and the forecast generation, which the tick's scans move, so the
// hint for the second admission at one clock follows the control pass's
// new forecast.
func TestRetryMemoExactAcrossTick(t *testing.T) {
	sys, mgr, gw, plant := memoSite(t, solar.Cloudy, survivalConfig())
	lo, hi := sys.Span()
	step := sys.Config().Step
	served := lo
	gw.Advance(served)
	moved := 0
	for tod := lo; tod < hi; tod += step {
		before := shedHint(t, gw, plant, served)
		sys.Tick(tod, mgr)
		if after := shedHint(t, gw, plant, served); before != 0 && after != 0 && after != before {
			moved++
		}
		gw.Advance(tod + step)
		served = tod + step
	}
	if moved == 0 {
		t.Fatal("no tick moved the hint between two admissions at one clock; the test checks nothing")
	}
}

// TestRetryMemoExactAcrossRestore decodes the states a second manager
// passed through over a cloudy day into the live manager at dawn, each
// between two admissions at one clock. The decoding Walk restores the
// forecast estimator with no scan after it, so it must move the forecast
// generation itself.
func TestRetryMemoExactAcrossRestore(t *testing.T) {
	src, srcMgr, _, _ := memoSite(t, solar.Cloudy, survivalConfig())
	lo, hi := src.Span()
	step := src.Config().Step
	var snaps [][]byte
	var enc journal.Encoder
	for tod := lo; tod < hi; tod += step {
		src.Tick(tod, srcMgr)
		if tod%(30*time.Minute) == 0 {
			enc.Reset()
			srcMgr.Walk(journal.Encoding(&enc))
			snaps = append(snaps, append([]byte(nil), enc.Bytes()...))
		}
	}

	sys, mgr, gw, plant := memoSite(t, solar.Cloudy, survivalConfig())
	tod := lo
	for ; tod < 6*time.Hour; tod += step {
		sys.Tick(tod, mgr)
	}
	gw.Advance(tod)
	moved := 0
	last := shedHint(t, gw, plant, tod)
	for _, b := range snaps {
		dec := journal.NewDecoder(b)
		mgr.Walk(journal.Decoding(dec))
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
		h := shedHint(t, gw, plant, tod)
		if last != 0 && h != 0 && h != last {
			moved++
		}
		last = h
	}
	if moved == 0 {
		t.Fatal("no restored state moved the hint; the test checks nothing")
	}
}

// TestRetryMemoExactWithoutForecaster runs a manager with no estimator,
// whose forecast is the present supply with a 25% margin. A SolarNow that
// moves with no scan (here written directly) must still move the forecast
// generation.
func TestRetryMemoExactWithoutForecaster(t *testing.T) {
	sys, mgr, gw, plant := memoSite(t, solar.Sunny, core.DefaultConfig())
	lo, _ := sys.Span()
	step := sys.Config().Step
	tod := lo
	for ; tod < 8*time.Hour; tod += step {
		sys.Tick(tod, mgr)
	}
	gw.Advance(tod)
	for _, c := range []struct {
		solarW units.Watt
		want   time.Duration
	}{
		{0, retryHorizon},
		{1000, retryStep},
		{1000, retryStep},
		{100, retryHorizon},
	} {
		sys.SolarPower = c.solarW
		if got := shedHint(t, gw, plant, tod); got != c.want {
			t.Fatalf("hint with %v W of solar = %v, want %v", c.solarW, got, c.want)
		}
	}
}
