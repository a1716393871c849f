package core

import (
	"fmt"
	"time"

	"insure/internal/journal"
	"insure/internal/logbook"
	"insure/internal/sim"
)

// DefaultSnapshotEvery is the snapshot cadence in control passes. At the
// default 30 s period a snapshot rotates the journal every 15 simulated
// minutes, bounding both replay time and journal growth to one coarse
// interval's worth of records.
const DefaultSnapshotEvery = 30

// JournaledManager wraps a Manager so that every completed control pass
// is committed to a write-ahead journal before the next tick proceeds.
// Commits reuse one encoder buffer and the store's framing buffer, so
// the steady-state cost on the tick path is an fsync amortized over the
// control period — the alloc-regression tests hold with journaling
// attached.
type JournaledManager struct {
	*Manager
	store *journal.Store
	enc   journal.Encoder

	// SnapshotEvery is the number of control passes between snapshot
	// rotations (journal truncations).
	SnapshotEvery int

	passes int
	err    error
}

var _ sim.Manager = (*JournaledManager)(nil)

// NewJournaled wraps m so each control pass commits to store.
func NewJournaled(m *Manager, store *journal.Store) *JournaledManager {
	return &JournaledManager{Manager: m, store: store, SnapshotEvery: DefaultSnapshotEvery}
}

// Control implements sim.Manager: run the wrapped pass, then commit the
// resulting state.
func (j *JournaledManager) Control(sys *sim.System, now time.Duration) {
	j.Manager.Control(sys, now)
	j.commit()
}

// commit serializes the manager and appends (or, on the snapshot cadence,
// rotates) the store. Journal errors are sticky and surfaced through Err:
// the control loop must keep running the plant even when the state disk
// has failed — durability degrades, control does not.
func (j *JournaledManager) commit() {
	j.passes++
	j.enc.Reset()
	j.Manager.AppendState(&j.enc)
	var err error
	if j.SnapshotEvery > 0 && j.passes%j.SnapshotEvery == 0 {
		err = j.store.Snapshot(j.enc.Bytes())
	} else {
		_, err = j.store.Append(j.enc.Bytes())
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// Err returns the first journal-commit error, or nil.
func (j *JournaledManager) Err() error { return j.err }

// Store returns the underlying journal store.
func (j *JournaledManager) Store() *journal.Store { return j.store }

// Restart is the in-process kill: the controller dies and comes back
// from its journal alone. The store closes, with tornBytes chopped off
// its tail when tornBytes > 0 (a torn mid-write record, as a power cut
// leaves it). Recover rebuilds the manager from the store's directory,
// on the real filesystem, under the dead one's own config and unit
// count; the new manager reports to the registry the dead one reported
// to, and Reconcile re-drives sys under the journal's intent. It returns
// the number of pairs re-driven. The plant is physical and keeps its
// state throughout.
//
// j keeps driving the new manager: its pass counter and sticky error
// reset, SnapshotEvery is kept, and a mode hook is not carried over (it
// is not journaled state). On error j still holds the closed store, so
// a deferred Close stays safe.
func (j *JournaledManager) Restart(sys *sim.System, now time.Duration, tornBytes int64) (int, error) {
	dir := j.store.Dir()
	if err := j.store.Close(); err != nil {
		return 0, fmt.Errorf("core: restart: closing the store: %w", err)
	}
	if tornBytes > 0 {
		if err := journal.TruncateTail(dir, tornBytes); err != nil {
			return 0, fmt.Errorf("core: restart: tearing the tail: %w", err)
		}
	}
	m, store, err := Recover(j.cfg, len(j.groups), dir)
	if err != nil {
		return 0, fmt.Errorf("core: restart: %w", err)
	}
	if j.tel != nil {
		m.AttachTelemetry(j.tel.reg)
	}
	j.Manager, j.store, j.passes, j.err = m, store, 0, nil
	return m.Reconcile(sys, now), nil
}

// Recover rebuilds a manager from the state directory: a fresh Manager
// with the given configuration, overwritten by the newest committed image
// (journal.LoadResult.Newest — every record is a complete state image, so
// only the newest valid one matters). It returns the reopened store, ready
// for the next commit — any torn tail from the crash has been truncated
// away by journal.Open.
//
// A directory with no usable state yields a cold-start manager and no
// recovery count; otherwise the manager's recovery counter increments.
func Recover(cfg Config, n int, dir string) (*Manager, *journal.Store, error) {
	res, err := journal.Load(dir)
	if err != nil {
		return nil, nil, err
	}
	m := New(cfg, n)
	if img := res.Newest(); img != nil {
		if err := m.Restore(img); err != nil {
			return nil, nil, err
		}
		m.recoveries++
	}
	store, err := journal.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return m, store, nil
}

// Reconcile compares the restored relay intent against the live plant and
// re-drives every pair whose electrical mode disagrees — the journal says
// closed but the plant says open (a transition that never settled before
// the crash), or the inverse after a torn-tail restore lost the final
// pass. Each re-drive is counted in the manager and, when telemetry is
// attached, in insure_recovery_reconciliations_total. Returns the number
// of pairs re-driven.
//
// Call it once after Recover, before the first Control pass, so the
// plant is back under the journal's intent before new decisions are made
// (Restart does).
func (m *Manager) Reconcile(sys *sim.System, now time.Duration) int {
	// The plain recovery counter was incremented (and persisted) by
	// Recover; the registry counter increments here because telemetry is
	// only re-attached after the restore, and Reconcile runs exactly once
	// per recovery.
	if m.tel != nil {
		m.tel.recoveries.Inc()
	}
	if m.lastModes == nil {
		return 0
	}
	fixed := 0
	for i, want := range m.lastModes {
		got := sys.Fabric.Pair(i).Mode()
		if got == want {
			continue
		}
		sys.SetUnitMode(i, want)
		fixed++
		sys.Log.Addf(now, logbook.Power, "recovery",
			"unit %d reconciled: plant %s, journal %s — re-driven", i, got, want)
	}
	if fixed > 0 {
		sys.PLC.ScanNow()
	}
	m.reconciliations += fixed
	if m.tel != nil && fixed > 0 {
		m.tel.reconciliations.Add(int64(fixed))
	}
	return fixed
}

// Recoveries returns how many crash-restarts this control state has
// survived.
func (m *Manager) Recoveries() int { return m.recoveries }

// Reconciliations returns how many relay intents recovery re-drove.
func (m *Manager) Reconciliations() int { return m.reconciliations }
