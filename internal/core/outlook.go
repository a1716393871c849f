package core

import (
	"time"

	"insure/internal/sim"
	"insure/internal/units"
)

// This file is the manager's external energy-outlook surface: the small,
// read-only view of the plant's live energy state that the serving gateway
// (internal/gateway) admits interactive requests against. Everything here
// reads the same transduced estimates the controller itself plans with, so
// an admission decision and a ladder decision can never disagree about what
// the plant knows. (The fleet coordinator ranks sites by the per-unit
// EstimatedSoC and Mode directly, once per pass.)

// socMemo is MeanSoC's last answer: mean, computed on plant sys at its
// readings generation gen. A nil sys means there is none. The mean reads
// only the probes' register codes, which move only with the generation,
// and the quarantine flags, whose two writers (quarantine and a decoding
// Walk) drop the memo; the battery parameters it also reads are configuration.
type socMemo struct {
	sys  *sim.System
	gen  uint64
	mean float64
}

// MeanSoC returns the mean transduced SoC over the bank's non-quarantined
// units. This is the ladder's own aggregate (surviveEvaluate computes the
// identical mean), exported so admission control outside the control loop
// shares the controller's view of the buffer.
//
// Admission reads it once per request, many times per tick, so the answer
// is memoized on (sys, sys.ReadingsGen()) and is bit-identical to
// recomputing it. The memo is written on read: readers need the same
// serialization as the tick.
func (m *Manager) MeanSoC(sys *sim.System) float64 {
	gen := sys.ReadingsGen()
	if m.soc.sys == sys && m.soc.gen == gen {
		return m.soc.mean
	}
	var sum float64
	n := 0
	for i := range m.groups {
		if m.watch.quarantined[i] {
			continue
		}
		sum += estSoC(sys, i)
		n++
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	m.soc = socMemo{sys: sys, gen: gen, mean: mean}
	return mean
}

// forecastGen holds the terms of ForecastGen that the plant does not count.
type forecastGen struct {
	restores uint64     // decoding Walks that restored the estimator
	solar    units.Watt // the last SolarNow read with no estimator
	moves    uint64     // the reads that found it changed
}

// ForecastGen is the forecast generation of sys under m: a counter that
// moves whenever ForecastSupplyW(sys, ·) can answer differently, so the
// serving gateway memoizes its retry-after hint on it. It sums three
// terms, each of which only grows, so the sum moves whenever one does:
//
//   - sys.ReadingsGen(), which moves on every PLC scan. The estimator's
//     online writer, Observe, runs in a control pass, and every pass ends
//     in applyModes's ScanNow; each tick's new SolarNow comes with the
//     tick's own scan.
//   - The decoding Walks, which Restore the estimator with no scan after.
//   - With no estimator, each new SolarNow this read finds, for a SolarNow
//     that moved with no scan (a tick shorter than the PLC's scan
//     interval, or a write to sys.SolarPower).
//
// The last term is written on read: readers need the same serialization
// as the tick.
func (m *Manager) ForecastGen(sys *sim.System) uint64 {
	gen := sys.ReadingsGen() + m.fgen.restores
	if m.fc == nil {
		if s := sys.SolarNow(); s != m.fgen.solar {
			m.fgen.solar = s
			m.fgen.moves++
		}
		gen += m.fgen.moves
	}
	return gen
}

// ForecastSupplyW is the conservative renewable supply forecast at sim time
// at — the same estimator the survivability ladder plans against. Before
// the estimator has observed anything (or when forecasting is disabled) it
// falls back to the fixed 25% cloud margin on the present supply, matching
// projectDepletion's fallback.
func (m *Manager) ForecastSupplyW(sys *sim.System, at time.Duration) float64 {
	if m.fc != nil {
		return float64(m.fc.ConservativePredict(at, 1))
	}
	return 0.75 * float64(sys.SolarNow())
}
