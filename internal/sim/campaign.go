package sim

import (
	"context"
	"fmt"
	"runtime/debug"
)

// CampaignRun is one independent simulation in a campaign: a named factory
// that builds a fully-wired System plus the Manager to drive it. The factory
// runs inside a pool worker, so every run gets its own plant, RNG, recorder,
// and logbook state — nothing is shared between runs except whatever
// immutable inputs (e.g. a replayed trace.Trace) the caller closes over.
//
// The factory receives the executing worker's Arena. Passing it into
// Config.Arena lets the run reuse the worker's cached solar LUTs and
// recycled recorders; ignoring it (or a nil arena) is always valid.
type CampaignRun struct {
	Name  string
	Setup func(a *Arena) (*System, Manager, error)

	// Transient marks a run whose System does not outlive its campaign
	// cell — the caller consumes only the returned Result. The engine then
	// recycles the System's recorder into the worker's arena for the next
	// run. Leave it false when Setup lets the *System escape (pointer
	// capture, recorded frames read after the campaign).
	Transient bool
}

// RunCampaign executes the runs on the work-stealing cell pool and returns
// their Results in input order. workers <= 0 means GOMAXPROCS; workers == 1
// runs serially inline. When called from inside another campaign cell, the
// runs join the enclosing pool so idle workers steal them (see RunCells).
//
// Each run is deterministic in isolation, so the positional result slice is
// byte-for-byte identical to running the campaign serially — the paper's
// paired-trace methodology (§5) depends on that. A run that panics is
// converted into an error carrying the run name and stack; a failed run
// stops the runs after it, and the first error in input order is returned
// after every cell has either finished or been marked cancelled. On error
// the partial
// results are discarded — the caller gets (nil, err), never a mix of real
// and zero Results.
func RunCampaign(ctx context.Context, workers int, runs []CampaignRun) ([]Result, error) {
	results := make([]Result, len(runs))
	err := RunCells(ctx, workers, len(runs), func(_ context.Context, i int, a *Arena) error {
		return runCampaignOne(&runs[i], &results[i], a)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCampaignOne executes one run on worker arena a, converting a panic
// into an error so a misconfigured experiment fails its campaign instead of
// killing the process.
func runCampaignOne(run *CampaignRun, res *Result, a *Arena) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: campaign run %q panicked: %v\n%s", run.Name, r, debug.Stack())
		}
	}()
	sys, mgr, err := run.Setup(a)
	if err != nil {
		return fmt.Errorf("sim: campaign run %q: %w", run.Name, err)
	}
	*res = sys.Run(mgr)
	if run.Transient {
		a.recycleSystem(sys)
	}
	return nil
}
