package fleet

import (
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

// Walk is the coordinator's one persisted layout: the non-log-derivable
// control state. Decode it after New (which replays the migration log) so
// the detector view lands on top of the replayed accounting.
func (c *Coordinator) Walk(k journal.Codec) {
	k.Version(coordStateVersion)
	journal.Int(k, &c.day)
	journal.Int(k, &c.heals)
	k.Size(len(c.sites), "fleet: coordinator state has %d sites, coordinator has %d")
	for i := range c.sites {
		st := &c.sites[i]
		k.Bool(&st.dead)
		k.Bool(&st.declared)
		k.Bool(&st.suspected)
		journal.Int(k, &st.missedBeats)
		k.Bool(&st.evacuate)
		journal.F64(k, &st.soc)
		journal.F64(k, &st.solarW)
		journal.Int(k, &st.mode)
		journal.F64(k, &st.pendingGB)
		journal.F64(k, &st.lastProcessed)
		journal.F64(k, &st.lostPendingGB)
	}
}

// AppendState serializes the coordinator's control state into e.
func (c *Coordinator) AppendState(e *journal.Encoder) { c.Walk(journal.Encoding(e)) }
