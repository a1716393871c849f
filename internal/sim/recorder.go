package sim

import (
	"time"

	"insure/internal/relay"
	"insure/internal/units"
)

// Frame is one down-sampled observation of the plant, enough to re-render
// the paper's trace figures (Figs 5, 14, 16).
type Frame struct {
	At        time.Duration
	Solar     units.Watt
	Load      units.Watt
	StoredWh  units.WattHour
	Volts     []units.Volt
	SoCs      []float64
	Modes     []relay.Mode
	RunningVM int
}

// Recorder accumulates frames over a run. Per-unit samples live in flat
// backing arrays that each Frame sub-slices, so a capture whose capacity was
// pre-sized (see NewRecorderSized) performs no allocation — the recorder is
// part of the zero-alloc tick invariant.
type Recorder struct {
	frames []Frame
	volts  []units.Volt
	socs   []float64
	modes  []relay.Mode
}

// NewRecorderSized returns a recorder pre-sized for the expected number of
// frames over a run of a plant with nUnits battery units. Captures within
// the estimate are allocation-free; beyond it the recorder grows as usual.
func NewRecorderSized(frames, nUnits int) *Recorder {
	if frames < 0 {
		frames = 0
	}
	if nUnits < 0 {
		nUnits = 0
	}
	return &Recorder{
		frames: make([]Frame, 0, frames),
		volts:  make([]units.Volt, 0, frames*nUnits),
		socs:   make([]float64, 0, frames*nUnits),
		modes:  make([]relay.Mode, 0, frames*nUnits),
	}
}

// Frames returns the captured series.
func (r *Recorder) Frames() []Frame { return r.frames }

// Reset truncates the recorder to empty while keeping its backing arrays,
// so the next run's captures reuse the memory instead of growing it again.
// Frames handed out before the reset alias storage that will be
// overwritten — only reset a recorder whose output is no longer referenced.
func (r *Recorder) Reset() {
	r.frames = r.frames[:0]
	r.volts = r.volts[:0]
	r.socs = r.socs[:0]
	r.modes = r.modes[:0]
}

func (r *Recorder) capture(tod time.Duration, s *System) {
	n := s.Bank.Size()
	f := Frame{
		At:        tod,
		Solar:     s.SolarPower,
		Load:      s.LoadPower,
		StoredWh:  s.Bank.StoredEnergy(),
		RunningVM: s.Cluster.RunningVMs(),
	}
	vb, sb, mb := len(r.volts), len(r.socs), len(r.modes)
	for i := 0; i < n; i++ {
		u := s.Bank.Unit(i)
		r.volts = append(r.volts, u.TerminalVoltage())
		r.socs = append(r.socs, u.SoC())
		r.modes = append(r.modes, s.Fabric.Pair(i).Mode())
	}
	// Full-capacity sub-slices: a later append that grows the backing array
	// copies it elsewhere, leaving these views intact and immutable.
	f.Volts = r.volts[vb : vb+n : vb+n]
	f.SoCs = r.socs[sb : sb+n : sb+n]
	f.Modes = r.modes[mb : mb+n : mb+n]
	r.frames = append(r.frames, f)
}
