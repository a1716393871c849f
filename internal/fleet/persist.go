package fleet

import (
	"fmt"

	"insure/internal/core"
	"insure/internal/journal"
)

// Coordinator state serialization, used by the fleet daemon's day-boundary
// snapshots. Only state that is NOT derivable from the migration log rides
// here: the day counter, the failure-detector view, the heal count, and the
// per-site control cursors. Everything the log can rebuild — totals,
// in-flight transfers, job dedup maps, per-site shipping accounting — is
// deliberately absent: the daemon rolls the log back to the snapshot's
// sequence number (journal.TruncateAfterSeqFS) and lets New's replay rebuild
// it, so there is exactly one source of truth for migration accounting.

const coordStateVersion = 1

// AppendState serializes the non-log-derivable coordinator state onto enc.
func (c *Coordinator) AppendState(e *journal.Encoder) {
	e.U8(coordStateVersion)
	e.Int(c.day)
	e.Int(c.heals)
	e.Int(len(c.sites))
	for i := range c.sites {
		st := &c.sites[i]
		e.Bool(st.dead)
		e.Bool(st.declared)
		e.Bool(st.suspected)
		e.Int(st.missedBeats)
		e.Bool(st.evacuate)
		e.F64(st.soc)
		e.F64(st.solarW)
		e.Int(int(st.mode))
		e.F64(st.pendingGB)
		e.F64(st.lastProcessed)
		e.F64(st.lostPendingGB)
	}
}

// RestoreState overwrites the coordinator's control state from a payload
// written by AppendState. Call it after New (which replays the migration
// log) so the detector view lands on top of the replayed accounting.
func (c *Coordinator) RestoreState(d *journal.Decoder) error {
	d.ExpectVersion(coordStateVersion)
	day := d.Int()
	heals := d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("fleet: corrupt coordinator state: %w", err)
	}
	if n != len(c.sites) {
		return fmt.Errorf("fleet: coordinator state has %d sites, coordinator has %d", n, len(c.sites))
	}
	c.day = day
	c.heals = heals
	for i := range c.sites {
		st := &c.sites[i]
		st.dead = d.Bool()
		st.declared = d.Bool()
		st.suspected = d.Bool()
		st.missedBeats = d.Int()
		st.evacuate = d.Bool()
		st.soc = d.F64()
		st.solarW = d.F64()
		st.mode = core.OpMode(d.Int())
		st.pendingGB = d.F64()
		st.lastProcessed = d.F64()
		st.lostPendingGB = d.F64()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("fleet: corrupt coordinator state: %w", err)
	}
	return nil
}
