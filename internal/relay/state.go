package relay

import (
	"time"

	"insure/internal/journal"
)

// relayStateVersion guards the binary layout of a serialized Relay.
const relayStateVersion = 1

// RelayState is the complete mutable state of one relay: contact
// position, wear counters, in-flight settle accounting, and any injected
// hardware fault. Names and the OnSettle hook are wiring, not state.
type RelayState struct {
	Closed  bool
	Cycles  int64
	Aborted int64
	Pending time.Duration // time remaining until an in-flight switch settles
	Waited  time.Duration // sim-time elapsed since the in-flight Set
	Fail    FailMode
}

// State captures the relay's mutable state.
func (r *Relay) State() RelayState { return r.st }

// Restore overwrites the relay's mutable state.
func (r *Relay) Restore(st RelayState) { r.st = st }

// walk is the relay's one persisted layout.
func (st *RelayState) walk(c journal.Codec) {
	c.Version(relayStateVersion)
	c.Bool(&st.Closed)
	journal.I64(c, &st.Cycles)
	journal.I64(c, &st.Aborted)
	journal.I64(c, &st.Pending)
	journal.I64(c, &st.Waited)
	journal.Int(c, &st.Fail)
}

// Walk is the fabric's one persisted layout: the pair count, which must
// match the fabric's, then every pair's contacts.
func (f *Fabric) Walk(c journal.Codec) {
	c.Size(len(f.pairs), "relay: restoring %d pairs into fabric of %d")
	for _, p := range f.pairs {
		p.Charge.st.walk(c)
		p.Discharge.st.walk(c)
	}
}
