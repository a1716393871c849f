package sim

import (
	"context"
	"fmt"
	"time"
)

// FleetSpec is one plant of a Fleet: its configuration, workload sink, and
// power manager.
type FleetSpec struct {
	Config  Config
	Sink    Sink
	Manager Manager
}

// Fleet embeds N independent plant simulations in one process and steps
// them as a batch — the embeddability layer fleet federation builds on.
//
// The plants are operationally independent: no power, control, or workload
// coupling exists between them, each owns its bank and relay fabric, and
// each produces exactly the Result its System would produce under
// System.Run. Advance and Run step the plants concurrently, one plant per
// cell of the campaign pool (RunCells), and Tick steps them one after
// another; either way the results are the same because the plants share
// no state.
type Fleet struct {
	step    time.Duration
	systems []*System
	mgrs    []Manager
	starts  []time.Duration
	ends    []time.Duration
}

// NewFleet assembles one System per spec. Every spec must use the same
// simulation step.
func NewFleet(specs []FleetSpec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: fleet needs at least one plant")
	}
	for i := range specs {
		// A nil Sink would panic deep inside New, and a nil Manager would
		// silently run the plant unmanaged; both are spec bugs, named by
		// index so a caller assembling N specs can find the bad one.
		if specs[i].Sink == nil {
			return nil, fmt.Errorf("sim: fleet plant %d has a nil Sink", i)
		}
		if specs[i].Manager == nil {
			return nil, fmt.Errorf("sim: fleet plant %d has a nil Manager", i)
		}
	}
	step := specs[0].Config.Step
	if step <= 0 {
		step = time.Second
	}
	for i := range specs {
		s := specs[i].Config.Step
		if s <= 0 {
			s = time.Second
		}
		if s != step {
			return nil, fmt.Errorf("sim: fleet plants disagree on step (%v vs %v)", s, step)
		}
	}

	f := &Fleet{
		step:    step,
		systems: make([]*System, len(specs)),
		mgrs:    make([]Manager, len(specs)),
		starts:  make([]time.Duration, len(specs)),
		ends:    make([]time.Duration, len(specs)),
	}
	for i := range specs {
		sys, err := New(specs[i].Config, specs[i].Sink)
		if err != nil {
			return nil, fmt.Errorf("sim: fleet plant %d: %w", i, err)
		}
		f.systems[i] = sys
		f.mgrs[i] = specs[i].Manager
		f.starts[i], f.ends[i] = sys.Span()
		// The fleet's tick grid is tod = starts[0] + k·step; a plant whose own
		// span start is off that grid would tick at different instants than
		// its solo Run, breaking result equivalence. Reject it up front.
		if (f.starts[i]-f.starts[0])%step != 0 {
			return nil, fmt.Errorf("sim: fleet plant %d span start %v misaligned with plant 0 (%v) at step %v",
				i, f.starts[i], f.starts[0], step)
		}
	}
	return f, nil
}

// Size returns the number of plants.
func (f *Fleet) Size() int { return len(f.systems) }

// System returns plant i's System, e.g. to attach telemetry or fault hooks
// before Run.
func (f *Fleet) System(i int) *System { return f.systems[i] }

// SimulatedTime is the total simulated plant-time one Run covers, summed
// across plants — the numerator of the plant-years-per-second metric.
func (f *Fleet) SimulatedTime() time.Duration {
	var total time.Duration
	for i := range f.systems {
		total += f.ends[i] - f.starts[i]
	}
	return total
}

// Step is the shared simulation step.
func (f *Fleet) Step() time.Duration { return f.step }

// Bounds returns the union [lo, hi) of every plant's span — the range Run
// advances over.
func (f *Fleet) Bounds() (lo, hi time.Duration) {
	lo, hi = f.starts[0], f.ends[0]
	for i := 1; i < len(f.systems); i++ {
		if f.starts[i] < lo {
			lo = f.starts[i]
		}
		if f.ends[i] > hi {
			hi = f.ends[i]
		}
	}
	return lo, hi
}

// Tick advances every plant whose span covers tod by one step, one plant
// after another on the caller's goroutine.
func (f *Fleet) Tick(tod time.Duration) {
	for i, sys := range f.systems {
		if tod >= f.starts[i] && tod < f.ends[i] {
			sys.Tick(tod, f.mgrs[i])
		}
	}
}

// Advance steps each listed plant through the ticks in [from, to) that its
// span covers; from must lie on the tick grid (Bounds' lo plus a multiple
// of Step). The plants run as cells of one RunCells batch, so the worker
// count follows GOMAXPROCS, and at GOMAXPROCS 1 they run inline one after
// another.
//
// A plant's tick hook and manager run on a pool worker, concurrently with
// the other listed plants', so no two plants' hooks, managers or sinks may
// share mutable state. Advance returns once every listed plant has reached
// to; a plant that panics stops the batch, and the panic, carrying the
// plant's stack, is raised again on the caller's goroutine.
func (f *Fleet) Advance(from, to time.Duration, plants []int) {
	err := RunCells(context.Background(), 0, len(plants), func(_ context.Context, k int, _ *Arena) error {
		i := plants[k]
		sys, mgr := f.systems[i], f.mgrs[i]
		end := min(to, f.ends[i])
		for tod := max(from, f.starts[i]); tod < end; tod += f.step {
			sys.Tick(tod, mgr)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// Finish closes out every plant and returns the Results in input order.
func (f *Fleet) Finish() []Result {
	out := make([]Result, len(f.systems))
	for i, sys := range f.systems {
		out[i] = sys.Finish(f.mgrs[i])
	}
	return out
}

// Run steps every plant over its full-day span (Advance over Bounds) and
// returns each plant's Result in input order. Because the plants are
// independent, the results are identical to calling systems[i].Run(mgrs[i])
// one after another.
func (f *Fleet) Run() []Result {
	all := make([]int, len(f.systems))
	for i := range all {
		all[i] = i
	}
	lo, hi := f.Bounds()
	f.Advance(lo, hi, all)
	return f.Finish()
}
