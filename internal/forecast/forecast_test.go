package forecast

import (
	"math"
	"testing"
	"time"

	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
)

func TestClearSkyTracksElevation(t *testing.T) {
	e := NewEstimator(1520)
	noon := 13*time.Hour + 30*time.Minute
	if p := e.Predict(noon); float64(p) < 1400 {
		t.Errorf("clear-sky noon prediction %v too low", p)
	}
	if p := e.Predict(2 * time.Hour); p != 0 {
		t.Errorf("night prediction %v, want 0", p)
	}
}

func TestObserveLearnsAttenuation(t *testing.T) {
	e := NewEstimator(1520)
	noon := 13 * time.Hour
	// Feed half-attenuated readings for 30 minutes.
	for i := 0; i < 1800; i++ {
		cs := float64(e.clearSky(noon))
		e.Observe(noon, units.Watt(cs*0.5), time.Second)
	}
	if r := e.Ratio(); math.Abs(r-0.5) > 0.05 {
		t.Errorf("learned ratio %.2f, want ~0.5", r)
	}
	if p := e.Predict(noon); math.Abs(float64(p)-0.5*float64(e.clearSky(noon))) > 50 {
		t.Errorf("prediction %v inconsistent with learned ratio", p)
	}
}

func TestNightObservationsIgnored(t *testing.T) {
	e := NewEstimator(1520)
	e.Observe(13*time.Hour, 760, time.Second) // establish 0.5
	before := e.Ratio()
	for i := 0; i < 100; i++ {
		e.Observe(2*time.Hour, 0, time.Second)
	}
	if e.Ratio() != before {
		t.Error("night observations changed the sky estimate")
	}
}

func TestUncertaintyTracksVariability(t *testing.T) {
	steady, choppy := NewEstimator(1520), NewEstimator(1520)
	noon := 13 * time.Hour
	for i := 0; i < 3600; i++ {
		cs := float64(steady.clearSky(noon))
		steady.Observe(noon, units.Watt(cs*0.8), time.Second)
		frac := 0.8
		if (i/60)%2 == 0 {
			frac = 0.3
		}
		choppy.Observe(noon, units.Watt(cs*frac), time.Second)
	}
	if choppy.Uncertainty() <= steady.Uncertainty() {
		t.Errorf("choppy sky uncertainty %.3f not above steady %.3f",
			choppy.Uncertainty(), steady.Uncertainty())
	}
}

func TestConservativePredictBelowPlain(t *testing.T) {
	e := NewEstimator(1520)
	noon := 13 * time.Hour
	for i := 0; i < 3600; i++ {
		frac := 0.8
		if (i/120)%2 == 0 {
			frac = 0.4
		}
		e.Observe(noon, units.Watt(float64(e.clearSky(noon))*frac), time.Second)
	}
	plain := e.Predict(noon)
	conservative := e.ConservativePredict(noon, 1)
	if conservative >= plain {
		t.Errorf("conservative %v not below plain %v under a choppy sky", conservative, plain)
	}
	if e.ConservativePredict(noon, 100) <= 0 {
		t.Error("conservative prediction should floor above zero")
	}
}

func TestPredictWindowIntegrates(t *testing.T) {
	e := NewEstimator(1520)
	got := e.PredictWindow(12*time.Hour, time.Hour)
	if got <= 0 || got > 1600 {
		t.Errorf("1-hour midday window = %v Wh, implausible", got)
	}
}

// TestForecastSkillOnSyntheticDay checks the estimator has real skill: on
// a cloudy trace, the 15-minute-ahead forecast must beat persistence-zero
// (predicting nothing) and naive clear-sky (ignoring clouds).
func TestForecastSkillOnSyntheticDay(t *testing.T) {
	tr := trace.Synthesize(solar.Cloudy, 99, time.Second)
	e := NewEstimator(1520)
	naive := NewEstimator(1520) // never observes: pure clear-sky
	var errModel, errNaive, count float64
	const ahead = 15 * time.Minute
	for tod := solar.Sunrise; tod < solar.Sunset-ahead; tod += time.Second {
		obs := tr.At(tod)
		e.Observe(tod, obs, time.Second)
		if int64(tod/time.Second)%60 == 0 && tod > solar.Sunrise+time.Hour {
			future := tod + ahead
			actual := float64(tr.At(future))
			errModel += math.Abs(float64(e.Predict(future)) - actual)
			errNaive += math.Abs(float64(naive.Predict(future)) - actual)
			count++
		}
	}
	if errModel >= errNaive {
		t.Errorf("forecast MAE %.0f W not below naive clear-sky %.0f W",
			errModel/count, errNaive/count)
	}
}

// TestConservativePredictCacheExact proves the cached discount exact: after
// every Observe and every Restore over a cloudy day, ConservativePredict at
// k 1 and 2 must equal, bit for bit, what a fresh estimator restored to the
// same State predicts. Each check ends on k 1, so the first read after the
// next write asks for the k the cache holds.
func TestConservativePredictCacheExact(t *testing.T) {
	tr := trace.Synthesize(solar.Cloudy, 2015, time.Second)
	e := NewEstimator(1520)
	check := func(what string, tod time.Duration) {
		t.Helper()
		fresh := NewEstimator(e.Capacity)
		fresh.Restore(e.State())
		for _, k := range []float64{1, 2, 1} {
			for _, at := range []time.Duration{tod, tod + 5*time.Minute, tod + 2*time.Hour} {
				got, want := e.ConservativePredict(at, k), fresh.ConservativePredict(at, k)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("after %s at %v: ConservativePredict(%v, %v) = %v, fresh estimator says %v",
						what, tod, at, k, got, want)
				}
			}
		}
	}
	const period = 30 * time.Second
	var saved []EstimatorState
	restores := 0
	for tod := solar.Sunrise - time.Hour; tod < solar.Sunset+time.Hour; tod += period {
		e.Observe(tod, tr.At(tod), period)
		check("Observe", tod)
		saved = append(saved, e.State())
		if n := len(saved); n%40 == 0 {
			e.Restore(saved[n-25])
			check("Restore", tod)
			restores++
		}
	}
	if restores == 0 || e.Uncertainty() == 0 {
		t.Fatalf("%d restores, uncertainty %v: the day exercised nothing", restores, e.Uncertainty())
	}
}
