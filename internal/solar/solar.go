// Package solar models the standalone power supply of InSURE: a synthetic
// sky, a PV panel, and a Perturb-and-Observe maximum power point tracker.
//
// The paper's prototype uses roof-mounted Grape Solar panels (1.6 kW
// installed) with an MPPT charge controller (§4, §5). We have no physical
// panel, so the sky model synthesises irradiance with the same structure as
// the paper's measured traces (Fig 15): a diurnal bell between 7:00 and
// 20:00 modulated by weather processes, giving a high-generation profile
// (~1114 W average) and a low-generation profile (~427 W average).
package solar

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"insure/internal/units"
)

// Condition is the day's weather class, matching the paper's sunny, cloudy
// and rainy operating logs (Table 6).
type Condition int

const (
	Sunny Condition = iota
	Cloudy
	Rainy
)

func (c Condition) String() string {
	switch c {
	case Sunny:
		return "sunny"
	case Cloudy:
		return "cloudy"
	case Rainy:
		return "rainy"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Day describes the solar window. The paper's traces span 7:00–20:00.
const (
	Sunrise = 7 * time.Hour
	Sunset  = 20 * time.Hour
)

// Elevation returns the clear-sky irradiance fraction in [0,1] at
// time-of-day tod: zero outside the solar window, a smooth bell inside it.
// Whole-second times of day are read from a table that bell filled once,
// so they cost a load and are bit-identical to computing it; every other
// time of day computes it.
func Elevation(tod time.Duration) float64 {
	if tod <= Sunrise || tod >= Sunset {
		return 0
	}
	if d := tod - Sunrise; d%time.Second == 0 {
		clearSkyOnce.Do(fillClearSky)
		return clearSky[d/time.Second]
	}
	return bell(tod)
}

// bell is the clear-sky curve inside the solar window.
func bell(tod time.Duration) float64 {
	frac := float64(tod-Sunrise) / float64(Sunset-Sunrise)
	return math.Pow(math.Sin(math.Pi*frac), 0.55)
}

// clearSky[i] is bell(Sunrise + i seconds). Every forecast step, estimator
// update and synthesized sample reads the curve at a whole second, and
// math.Pow dominates the curve's cost. A fixed array holds no pointers and
// lives outside the GC heap; it is filled on first use.
var (
	clearSkyOnce sync.Once
	clearSky     [(Sunset - Sunrise) / time.Second]float64
)

func fillClearSky() {
	for i := range clearSky {
		clearSky[i] = bell(Sunrise + time.Duration(i)*time.Second)
	}
}

// Sky synthesises an irradiance-fraction process for one day. It is a
// stateful generator: call Step once per simulation tick.
type Sky struct {
	cond Condition
	rng  *rand.Rand

	cloud     float64 // current cloud attenuation multiplier in (0,1]
	cloudLeft time.Duration
	target    float64

	// alpha is the cloud relaxation factor for step alphaDt, computed once
	// per step size rather than once per sample. The zero value is already
	// right for a zero step: 1 - exp(0) = 0.
	alpha   float64
	alphaDt time.Duration
}

// NewSky returns a sky for the given condition. The seed makes traces
// reproducible; the paper's methodology (§5) replays identical recorded
// traces across experiment pairs, which we achieve with equal seeds.
func NewSky(cond Condition, seed int64) *Sky {
	return &Sky{cond: cond, rng: rand.New(rand.NewSource(seed)), cloud: 1, target: 1}
}

// Step advances the sky by dt and returns the irradiance fraction at
// time-of-day tod (0 = midnight).
func (s *Sky) Step(tod, dt time.Duration) float64 {
	clear := Elevation(tod)
	if clear == 0 {
		return 0
	}

	// Weather attenuation: occasional deep cloud events (cloudy), or a
	// persistently dark, jittery overcast (rainy).
	var base, eventRate, depthLo, depthHi float64
	var durLo, durHi time.Duration
	switch s.cond {
	case Sunny:
		base, eventRate = 1.0, 1.0/(45*60) // rare thin clouds
		depthLo, depthHi = 0.75, 0.95
		durLo, durHi = 1*time.Minute, 4*time.Minute
	case Cloudy:
		base, eventRate = 0.85, 1.0/(6*60) // frequent deep clouds
		depthLo, depthHi = 0.15, 0.7
		durLo, durHi = 30*time.Second, 5*time.Minute
	case Rainy:
		base, eventRate = 0.32, 1.0/(3*60)
		depthLo, depthHi = 0.4, 0.9
		durLo, durHi = 20*time.Second, 3*time.Minute
	}

	if s.cloudLeft <= 0 {
		if s.rng.Float64() < eventRate*dt.Seconds() {
			s.target = depthLo + s.rng.Float64()*(depthHi-depthLo)
			s.cloudLeft = durLo + time.Duration(s.rng.Int63n(int64(durHi-durLo)))
		} else {
			s.target = 1
		}
	} else {
		s.cloudLeft -= dt
	}
	// First-order relaxation toward the target attenuation: clouds arrive
	// and leave over tens of seconds, not instantaneously.
	if dt != s.alphaDt {
		const tau = 20.0 // seconds
		s.alpha, s.alphaDt = 1-math.Exp(-dt.Seconds()/tau), dt
	}
	s.cloud += (s.target - s.cloud) * s.alpha

	return units.Clamp(clear*base*s.cloud, 0, 1)
}

// Panel converts irradiance fraction to DC power.
type Panel struct {
	// Rated is the installed capacity (1.6 kW for the prototype).
	Rated units.Watt
	// Derate covers wiring, soiling, and temperature losses.
	Derate float64
}

// DefaultPanel matches the prototype's 1.6 kW installation.
func DefaultPanel() Panel { return Panel{Rated: 1600, Derate: 0.95} }

// Output is the maximum extractable power at the given irradiance fraction
// — the true maximum power point the MPPT hunts for.
func (p Panel) Output(irr float64) units.Watt {
	return units.Watt(float64(p.Rated) * p.Derate * units.Clamp(irr, 0, 1))
}

// MPPT implements Perturb-and-Observe maximum power point tracking (§6.1,
// [63]). The tracker perturbs its operating point each step and keeps the
// perturbation direction while power increases. Around a steady optimum it
// oscillates slightly; under fast-moving irradiance it lags — both effects
// appear in the paper's Region-B "solar usage surges".
type MPPT struct {
	// StepSize is the per-tick perturbation of the normalised operating
	// point (0..1 of panel voltage range).
	StepSize float64
	// Width is the sharpness of the power curve around the optimum.
	Width float64

	op        float64 // normalised operating point
	dir       float64
	lastPower units.Watt
}

// NewMPPT returns a tracker with the prototype controller's behaviour.
func NewMPPT() *MPPT {
	return &MPPT{StepSize: 0.015, Width: 0.35, op: 0.5, dir: 1}
}

// Step advances the tracker one tick. mpp is the true maximum power point
// (panel output); the return value is the power actually harvested at the
// tracker's current operating point.
func (m *MPPT) Step(mpp units.Watt) units.Watt {
	if mpp <= 0 {
		m.lastPower = 0
		return 0
	}
	// Power curve: a concave bump around the optimum operating point. The
	// optimum itself shifts slightly with irradiance, which is what forces
	// continuous re-tracking.
	opt := 0.68 + 0.1*float64(mpp)/1600
	harvest := func(op float64) units.Watt {
		d := (op - opt) / m.Width
		return units.Watt(float64(mpp) * math.Max(0, 1-d*d))
	}

	p := harvest(m.op)
	if p < m.lastPower {
		m.dir = -m.dir
	}
	m.lastPower = p
	m.op = units.Clamp(m.op+m.dir*m.StepSize, 0, 1)
	return p
}

// Supply couples a sky, a panel, and an MPPT into the standalone power
// source the energy manager sees.
type Supply struct {
	Sky   *Sky
	Panel Panel
	Mppt  *MPPT

	harvested units.WattHour
	potential units.WattHour
}

// NewSupply assembles the default prototype supply for one day.
func NewSupply(cond Condition, seed int64) *Supply {
	return &Supply{Sky: NewSky(cond, seed), Panel: DefaultPanel(), Mppt: NewMPPT()}
}

// Step returns the harvested power budget for this tick.
func (s *Supply) Step(tod, dt time.Duration) units.Watt {
	irr := s.Sky.Step(tod, dt)
	mpp := s.Panel.Output(irr)
	got := s.Mppt.Step(mpp)
	s.potential += units.Energy(mpp, dt)
	s.harvested += units.Energy(got, dt)
	return got
}

// Harvested is the cumulative energy actually captured.
func (s *Supply) Harvested() units.WattHour { return s.harvested }

// Potential is the cumulative energy available at perfect tracking.
func (s *Supply) Potential() units.WattHour { return s.potential }

// TrackingEfficiency is harvested/potential over the run so far.
func (s *Supply) TrackingEfficiency() float64 {
	if s.potential == 0 {
		return 1
	}
	return float64(s.harvested) / float64(s.potential)
}
