package chaos

import (
	"fmt"
	"math"
	"time"

	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
)

// The kernel every campaign runs on: one verdict that every report embeds,
// one family of FNV-1a digests, one per-tick watch that holds every plant
// to the same invariants, and one controller restart.

// plantBatteries and plantServers size the paper's prototype plant, the
// one every campaign runs unless its config resizes it.
const (
	plantBatteries = 6
	plantServers   = 4
)

// maxViolationDetail caps how many violations keep their full text; the
// count is always exact.
const maxViolationDetail = 16

// tornTailBytes is how much of the journal tail a torn kill chops off —
// enough to corrupt the final record the way a mid-write power cut does,
// small enough to never reach past one record into committed state.
const tornTailBytes = 40

// Verdict is the invariant tally every campaign report embeds: the exact
// violation count and the text of the first maxViolationDetail violations.
type Verdict struct {
	ViolationCount int
	Violations     []string
}

func (v *Verdict) violate(format string, args ...any) {
	v.ViolationCount++
	if len(v.Violations) < maxViolationDetail {
		v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
	}
}

// FNV-1a's 64-bit parameters, shared by every digest a campaign folds.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// chain folds one plant-day's digest into a campaign hash. Campaigns chain
// day-major (site-minor within a day), so two runs agree only if every
// plant moved identically on every day.
func chain(h, v uint64) uint64 { return h*fnvPrime ^ v }

// fold mixes a string into a hash, FNV-1a style; zero starts a new hash.
func fold(h uint64, s string) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashFrames folds a recorded trajectory into an FNV-1a digest: tick time,
// stored energy, running VMs, and every unit's SoC and relay mode. Two
// campaigns agree on this hash only if the plant moved identically.
func hashFrames(frames []sim.Frame) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	for _, f := range frames {
		mix(uint64(f.At))
		mix(math.Float64bits(float64(f.StoredWh)))
		mix(uint64(f.RunningVM))
		for i := range f.SoCs {
			mix(math.Float64bits(f.SoCs[i]))
			mix(uint64(f.Modes[i]))
		}
	}
	return h
}

// watch is one plant's observer for one day, installed as its tick hook.
// At the top of every tick it lands the plant's due faults, notes when a
// brownout began, and checks the invariants every campaign holds every
// plant to. The hook runs before the tick moves the plant, so it sees the
// state the previous tick left; settle checks the last one.
type watch struct {
	v     *Verdict
	where string // prefixes each violation with the plant's day and site
	sys   *sim.System
	mgr   *core.Manager
	inj   *faults.Injector
	// armed puts the survivability ladder on duty: no VM may then be lost
	// to a power cut with its state uncheckpointed.
	armed bool

	mode       core.OpMode
	lost       int
	brownouts  int
	brownTicks []time.Duration // when each brownout was first seen
}

func newWatch(v *Verdict, where string, sys *sim.System, mgr *core.Manager, plan faults.Plan, armed bool) *watch {
	w := &watch{v: v, where: where, sys: sys, mgr: mgr, armed: armed, mode: mgr.Mode(),
		inj: faults.NewInjector(plan, faults.Target{Bank: sys.Bank, Fabric: sys.Fabric, Probes: sys.Probes})}
	sys.SetTickHook(func(tod time.Duration) {
		w.inj.Tick(tod)
		w.check(tod)
	})
	return w
}

func (w *watch) check(tod time.Duration) {
	if b := w.sys.Brownouts(); b > w.brownouts {
		w.brownouts = b
		w.brownTicks = append(w.brownTicks, tod)
	}
	f := w.sys.Fabric
	for i := 0; i < f.Size(); i++ {
		if p := f.Pair(i); p.Charge.Closed() && p.Discharge.Closed() {
			w.v.violate("%sunit %d: charge and discharge contacts both closed at %v", w.where, i, tod)
		}
	}
	if f.P2.Closed() && (f.P1.Closed() || f.P3.Closed()) {
		w.v.violate("%sseries switch P2 closed alongside a parallel switch at %v", w.where, tod)
	}
	const eps = 1e-9
	for i := 0; i < w.sys.Bank.Size(); i++ {
		if soc := w.sys.Bank.Unit(i).SoC(); soc < -eps || soc > 1+eps {
			w.v.violate("%sunit %d: SoC %v out of bounds at %v", w.where, i, soc, tod)
		}
	}
	// Ladder transitions happen only inside a control pass, so sampling
	// every tick observes each one.
	if cur := w.mgr.Mode(); cur != w.mode {
		if !core.LadderAdjacent(w.mode, cur) {
			w.v.violate("%sillegal ladder move %s -> %s at %v", w.where, w.mode, cur, tod)
		}
		w.mode = cur
	}
	if l := w.sys.Cluster.VMsLost(); w.armed && l > w.lost {
		w.v.violate("%s%d VMs lost uncheckpointed at %v", w.where, l-w.lost, tod)
		w.lost = l
	}
}

// settle checks the state the day's last tick left, which no tick hook
// sees. A plant that stopped ticking early (a hard-failed site) must not
// be settled: its crash is the failure itself, not a breach.
func (w *watch) settle() {
	_, end := w.sys.Span()
	w.check(end)
}

// restart kills the controller of w's plant at tod and brings it back.
// Only the journal in dir survives: the store closes — torn, with its last
// tornTailBytes chopped — recovery rebuilds the manager from the journal,
// and reconciliation re-drives the plant under the journal's intent. The
// plant is physical and keeps running throughout; w follows the new
// manager. On failure the closed old store comes back, so a caller's
// deferred Close stays safe.
func restart(w *watch, store *journal.Store, dir string, torn bool, mcfg core.Config, reg *telemetry.Registry, tod time.Duration) (*core.Manager, *journal.Store, error) {
	if err := store.Close(); err != nil {
		return nil, store, err
	}
	if torn {
		if err := journal.TruncateTail(dir, tornTailBytes); err != nil {
			return nil, store, err
		}
	}
	mgr, recovered, err := core.Recover(mcfg, w.sys.Bank.Size(), dir)
	if err != nil {
		return nil, store, fmt.Errorf("chaos: recovery at %v: %w", tod, err)
	}
	mgr.AttachTelemetry(reg)
	mgr.Reconcile(w.sys, tod)
	w.mgr, w.mode = mgr, mgr.Mode()
	return mgr, recovered, nil
}
