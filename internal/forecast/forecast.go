// Package forecast provides short-horizon solar power forecasting for
// lookahead power planning — the paper's stated future work ("By setting a
// more restrictive budget, one can further extend battery lifetime but may
// incur slight performance degradation. Exploring this tradeoff is our
// future work", §6.3).
//
// The estimator is a clear-sky-ratio model, the standard baseline in solar
// forecasting: it learns the current attenuation of the deterministic
// clear-sky curve from recent observations and projects that ratio
// forward. It needs no future knowledge, so managers can use it without
// breaking causality.
package forecast

import (
	"math"
	"time"

	"insure/internal/solar"
	"insure/internal/units"
)

// Estimator learns the sky state online from power observations.
type Estimator struct {
	// Capacity is the installed clear-sky peak (panel rated × derate).
	Capacity units.Watt
	// Tau is the smoothing time constant for the clear-sky ratio.
	Tau time.Duration

	ratio    float64 // smoothed observed/clear-sky ratio
	haveObs  bool
	variance float64 // smoothed squared deviation of the ratio

	// disc is ConservativePredict's discount max(0.1, ratio − discK·σ),
	// valid while discOK. It depends only on ratio, variance and k, so
	// Observe and Restore, their only writers, drop it.
	disc   float64
	discK  float64
	discOK bool
}

// NewEstimator returns an estimator for the given installed capacity.
func NewEstimator(capacity units.Watt) *Estimator {
	return &Estimator{Capacity: capacity, Tau: 10 * time.Minute, ratio: 1}
}

// clearSky is the deterministic expected power at time-of-day tod.
func (e *Estimator) clearSky(tod time.Duration) units.Watt {
	return units.Watt(float64(e.Capacity) * solar.Elevation(tod))
}

// Observe feeds one measurement taken at time-of-day tod over interval dt.
func (e *Estimator) Observe(tod time.Duration, observed units.Watt, dt time.Duration) {
	e.discOK = false
	cs := e.clearSky(tod)
	if cs < 20 {
		return // dawn/dusk readings carry no sky information
	}
	r := units.Clamp(float64(observed)/float64(cs), 0, 1.2)
	if !e.haveObs {
		e.ratio = r
		e.haveObs = true
		return
	}
	alpha := 1 - math.Exp(-dt.Seconds()/e.Tau.Seconds())
	dev := r - e.ratio
	e.ratio += dev * alpha
	e.variance += (dev*dev - e.variance) * alpha
}

// Ratio returns the current clear-sky ratio estimate in [0, 1.2].
func (e *Estimator) Ratio() float64 { return e.ratio }

// Uncertainty returns the ratio's recent standard deviation — a direct
// measure of how fluctuating the sky is (the paper's Region-E detector).
func (e *Estimator) Uncertainty() float64 { return math.Sqrt(math.Max(0, e.variance)) }

// Predict returns the expected power at time-of-day tod (possibly in the
// future) under the current sky state.
func (e *Estimator) Predict(tod time.Duration) units.Watt {
	return units.Watt(float64(e.clearSky(tod)) * e.ratio)
}

// PredictWindow integrates the forecast over [from, from+horizon).
func (e *Estimator) PredictWindow(from, horizon time.Duration) units.WattHour {
	var total units.WattHour
	const step = time.Minute
	for t := from; t < from+horizon; t += step {
		total += units.Energy(e.Predict(t), step)
	}
	return total
}

// ConservativePredict discounts the forecast by k standard deviations of
// the observed ratio, floored at a 10% ratio. Lookahead planners use this
// to avoid committing load against an unstable sky.
//
// Planners and the serving gateway's retry hints walk it over many times
// of day between two observations, so the discount is cached for the last
// k. The cache is written on read: readers need the same serialization as
// Observe.
func (e *Estimator) ConservativePredict(tod time.Duration, k float64) units.Watt {
	if !e.discOK || e.discK != k {
		e.disc, e.discK, e.discOK = math.Max(0.1, e.ratio-k*e.Uncertainty()), k, true
	}
	return units.Watt(float64(e.clearSky(tod)) * e.disc)
}
