package solar

import (
	"math"
	"testing"
	"time"

	"insure/internal/units"
)

func TestElevationWindow(t *testing.T) {
	if Elevation(3*time.Hour) != 0 {
		t.Error("irradiance before sunrise")
	}
	if Elevation(21*time.Hour) != 0 {
		t.Error("irradiance after sunset")
	}
	noon := Elevation(13*time.Hour + 30*time.Minute)
	if noon < 0.95 {
		t.Errorf("solar-noon elevation = %.3f, want near 1", noon)
	}
	morning := Elevation(8 * time.Hour)
	if morning <= 0 || morning >= noon {
		t.Errorf("morning elevation %.3f should be between 0 and noon %.3f", morning, noon)
	}
}

func TestElevationSymmetry(t *testing.T) {
	mid := Sunrise + (Sunset-Sunrise)/2
	for _, off := range []time.Duration{time.Hour, 2 * time.Hour, 4 * time.Hour} {
		a, b := Elevation(mid-off), Elevation(mid+off)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("elevation not symmetric at ±%v: %.4f vs %.4f", off, a, b)
		}
	}
}

// TestElevationTableExact checks the clear-sky table against the curve's
// expression bit for bit: at every whole second inside the solar window,
// at the window's edges, outside it, and at times of day that fall between
// whole seconds, which compute the curve directly.
func TestElevationTableExact(t *testing.T) {
	expr := func(tod time.Duration) float64 {
		if tod <= Sunrise || tod >= Sunset {
			return 0
		}
		frac := float64(tod-Sunrise) / float64(Sunset-Sunrise)
		return math.Pow(math.Sin(math.Pi*frac), 0.55)
	}
	check := func(tod time.Duration) {
		t.Helper()
		if got, want := Elevation(tod), expr(tod); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Elevation(%v) = %v (%#x), expression gives %v (%#x)",
				tod, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for tod := Sunrise + time.Second; tod < Sunset; tod += time.Second {
		check(tod)
	}
	for _, tod := range []time.Duration{
		Sunrise, Sunset, 0, -time.Second, Sunrise - time.Second, Sunrise - time.Nanosecond,
		Sunset + time.Nanosecond, Sunset + time.Second, 24*time.Hour - time.Second, 24 * time.Hour, 48 * time.Hour,
		Sunrise + time.Nanosecond, Sunrise + 500*time.Millisecond, Sunset - time.Nanosecond,
		Sunset - 500*time.Millisecond, 13*time.Hour + 30*time.Minute + time.Millisecond,
	} {
		check(tod)
	}
	for tod := Sunrise + 250*time.Millisecond; tod < Sunset; tod += 7*time.Second + 250*time.Millisecond {
		check(tod)
	}
}

func dayAverage(cond Condition, seed int64) units.Watt {
	s := NewSupply(cond, seed)
	var total units.WattHour
	ticks := 0
	for tod := Sunrise; tod < Sunset; tod += time.Second {
		p := s.Step(tod, time.Second)
		total += units.Energy(p, time.Second)
		ticks++
	}
	return total.Over(time.Duration(ticks) * time.Second)
}

func TestConditionOrdering(t *testing.T) {
	sunny := dayAverage(Sunny, 1)
	cloudy := dayAverage(Cloudy, 1)
	rainy := dayAverage(Rainy, 1)
	if !(sunny > cloudy && cloudy > rainy) {
		t.Errorf("ordering violated: sunny=%v cloudy=%v rainy=%v", sunny, cloudy, rainy)
	}
}

func TestHighGenerationLevel(t *testing.T) {
	// The paper's high-generation trace averages 1114 W over the daytime
	// window; our sunny day should land in the same regime (±20%).
	avg := float64(dayAverage(Sunny, 7))
	if avg < 1114*0.8 || avg > 1114*1.2 {
		t.Errorf("sunny average %v W outside paper's high-generation regime (~1114 W)", avg)
	}
}

func TestLowGenerationLevel(t *testing.T) {
	// The low-generation trace averages 427 W.
	avg := float64(dayAverage(Rainy, 7))
	if avg < 427*0.5 || avg > 427*1.6 {
		t.Errorf("rainy average %v W far from paper's low-generation regime (~427 W)", avg)
	}
}

func TestSkyDeterminism(t *testing.T) {
	a, b := NewSky(Cloudy, 42), NewSky(Cloudy, 42)
	for tod := Sunrise; tod < Sunrise+time.Hour; tod += time.Second {
		if a.Step(tod, time.Second) != b.Step(tod, time.Second) {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewSky(Cloudy, 43)
	diverged := false
	a2 := NewSky(Cloudy, 42)
	for tod := Sunrise; tod < Sunrise+2*time.Hour; tod += time.Second {
		if a2.Step(tod, time.Second) != c.Step(tod, time.Second) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical traces")
	}
}

func TestCloudyVariability(t *testing.T) {
	// Cloudy days must fluctuate more than sunny days (Fig 15 contrast).
	variability := func(cond Condition) float64 {
		sky := NewSky(cond, 99)
		var prev, sum float64
		n := 0
		for tod := 10 * time.Hour; tod < 16*time.Hour; tod += time.Second {
			v := sky.Step(tod, time.Second)
			if n > 0 {
				sum += math.Abs(v - prev)
			}
			prev = v
			n++
		}
		return sum
	}
	if cv, sv := variability(Cloudy), variability(Sunny); cv <= sv {
		t.Errorf("cloudy variability %.2f not above sunny %.2f", cv, sv)
	}
}

func TestPanelOutput(t *testing.T) {
	p := DefaultPanel()
	if got := p.Output(0); got != 0 {
		t.Errorf("zero irradiance output = %v", got)
	}
	full := p.Output(1)
	if full <= 0 || full > p.Rated {
		t.Errorf("full output %v outside (0, rated]", full)
	}
	if p.Output(2) != full {
		t.Error("irradiance not clamped")
	}
}

func TestMPPTTracksSteadyOptimum(t *testing.T) {
	m := NewMPPT()
	const mpp = 1000
	var got units.Watt
	for i := 0; i < 600; i++ {
		got = m.Step(mpp)
	}
	if float64(got) < 0.95*mpp {
		t.Errorf("steady-state tracking reached only %v of %v W", got, mpp)
	}
}

func TestMPPTZeroInput(t *testing.T) {
	m := NewMPPT()
	if m.Step(0) != 0 {
		t.Error("harvest without irradiance")
	}
}

func TestMPPTNeverExceedsAvailable(t *testing.T) {
	m := NewMPPT()
	for i := 0; i < 1000; i++ {
		mpp := units.Watt(200 + 100*math.Sin(float64(i)/50))
		if got := m.Step(mpp); got > mpp {
			t.Fatalf("harvested %v above available %v", got, mpp)
		}
	}
}

func TestSupplyAccounting(t *testing.T) {
	s := NewSupply(Sunny, 5)
	for tod := Sunrise; tod < Sunset; tod += time.Minute {
		s.Step(tod, time.Minute)
	}
	if s.Harvested() <= 0 {
		t.Fatal("nothing harvested on a sunny day")
	}
	if s.Harvested() > s.Potential() {
		t.Error("harvested exceeds potential")
	}
	eff := s.TrackingEfficiency()
	if eff < 0.7 || eff > 1 {
		t.Errorf("tracking efficiency %.3f implausible", eff)
	}
}

func TestConditionString(t *testing.T) {
	if Sunny.String() != "sunny" || Cloudy.String() != "cloudy" || Rainy.String() != "rainy" {
		t.Error("condition names wrong")
	}
	if Condition(9).String() == "" {
		t.Error("unknown condition should still format")
	}
}

func TestMPPTReactsToStepChange(t *testing.T) {
	m := NewMPPT()
	for i := 0; i < 600; i++ {
		m.Step(1000)
	}
	settled := float64(m.Step(1000))
	// Halve the available power: the tracker must re-converge near the
	// new optimum within a few minutes of perturbation steps.
	var after float64
	for i := 0; i < 600; i++ {
		after = float64(m.Step(500))
	}
	if after < 0.93*500 {
		t.Errorf("tracking after step change = %.0f W of 500", after)
	}
	if settled < 0.95*1000 {
		t.Errorf("initial settle = %.0f W of 1000", settled)
	}
}

func TestSupplyZeroAtNight(t *testing.T) {
	s := NewSupply(Sunny, 4)
	if p := s.Step(2*time.Hour, time.Second); p != 0 {
		t.Errorf("night harvest %v", p)
	}
	if s.TrackingEfficiency() != 1 {
		t.Error("efficiency with no potential should report 1")
	}
}
