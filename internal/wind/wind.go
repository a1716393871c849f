// Package wind models a small wind turbine as an alternative or complement
// to the solar array. The paper motivates standalone *wind/solar* systems
// with batteries as the right power source for in-situ servers (§1, §2.2:
// "standalone power supplies such as solar/wind system ... are often more
// suitable for data processing in field"); the prototype used solar only,
// so this package is the wind half of that design space.
//
// The wind speed process is a mean-reverting random walk shaped to a
// Rayleigh-like long-run distribution — the standard small-site assumption
// — and the turbine applies a cut-in/rated/cut-out power curve.
package wind

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"insure/internal/units"
)

// Regime classifies a site's wind resource.
type Regime int

const (
	// Calm sites average ~3.5 m/s — marginal for generation.
	Calm Regime = iota
	// Moderate sites average ~6 m/s — typical inland deployment.
	Moderate
	// Windy sites average ~9 m/s — coastal/ridge deployments.
	Windy
)

func (r Regime) String() string {
	switch r {
	case Calm:
		return "calm"
	case Moderate:
		return "moderate"
	case Windy:
		return "windy"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// meanSpeed returns the regime's long-run mean wind speed in m/s.
func (r Regime) meanSpeed() float64 {
	switch r {
	case Calm:
		return 3.5
	case Windy:
		return 9.0
	default:
		return 6.0
	}
}

// Field is the stochastic wind-speed process for one site.
type Field struct {
	regime Regime
	rng    *rand.Rand
	speed  float64 // current wind speed, m/s
}

// NewField returns a reproducible wind process for the site.
func NewField(regime Regime, seed int64) *Field {
	return &Field{
		regime: regime,
		rng:    rand.New(rand.NewSource(seed)),
		speed:  regime.meanSpeed(),
	}
}

// Step advances the process by dt and returns the wind speed in m/s.
// Mean reversion with a ~10-minute time constant plus gust noise gives the
// autocorrelation structure real anemometer traces show.
func (f *Field) Step(dt time.Duration) float64 {
	const tau = 600.0 // seconds
	mean := f.regime.meanSpeed()
	dtSec := dt.Seconds()
	alpha := 1 - math.Exp(-dtSec/tau)
	f.speed += (mean - f.speed) * alpha
	// Gust noise scales with the mean (turbulence intensity ~15%).
	f.speed += f.rng.NormFloat64() * 0.15 * mean * math.Sqrt(dtSec/tau)
	if f.speed < 0 {
		f.speed = 0
	}
	return f.speed
}

// Turbine is a small horizontal-axis wind turbine's power curve.
type Turbine struct {
	// Rated is the nameplate output at RatedSpeed.
	Rated units.Watt
	// CutIn, RatedSpeed, CutOut bound the power curve (m/s).
	CutIn      float64
	RatedSpeed float64
	CutOut     float64
}

// DefaultTurbine is a 1 kW small turbine, a plausible companion to the
// prototype's 1.6 kW solar array.
func DefaultTurbine() Turbine {
	return Turbine{Rated: 1000, CutIn: 3, RatedSpeed: 11, CutOut: 22}
}

// Output returns the electrical power at wind speed v (m/s): zero below
// cut-in and above cut-out, cubic between cut-in and rated, flat at rated.
func (t Turbine) Output(v float64) units.Watt {
	switch {
	case v < t.CutIn || v >= t.CutOut:
		return 0
	case v >= t.RatedSpeed:
		return t.Rated
	default:
		// Power grows with v³, normalised to hit Rated at RatedSpeed.
		frac := (math.Pow(v, 3) - math.Pow(t.CutIn, 3)) /
			(math.Pow(t.RatedSpeed, 3) - math.Pow(t.CutIn, 3))
		return units.Watt(float64(t.Rated) * frac)
	}
}

// Supply couples a wind field and turbine into a power source with the
// same Step contract as solar.Supply.
type Supply struct {
	Field   *Field
	Turbine Turbine

	harvested units.WattHour
}

// NewSupply assembles the default 1 kW turbine at the given site.
func NewSupply(regime Regime, seed int64) *Supply {
	return &Supply{Field: NewField(regime, seed), Turbine: DefaultTurbine()}
}

// Step returns the harvested wind power for this tick. Wind, unlike solar,
// blows around the clock, so tod is unused — the parameter keeps the
// signature interchangeable with the solar supply.
func (s *Supply) Step(tod, dt time.Duration) units.Watt {
	p := s.Turbine.Output(s.Field.Step(dt))
	s.harvested += units.Energy(p, dt)
	return p
}

// Harvested is the cumulative energy captured.
func (s *Supply) Harvested() units.WattHour { return s.harvested }
