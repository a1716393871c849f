package relay

import (
	"fmt"
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

// AppendTo serializes the state into e.
func (st RelayState) AppendTo(e *journal.Encoder) {
	e.U8(relayStateVersion)
	e.Bool(st.Closed)
	e.I64(st.Cycles)
	e.I64(st.Aborted)
	e.Dur(st.Pending)
	e.Dur(st.Waited)
	e.Int(int(st.Fail))
}

// ReadRelayState decodes one RelayState written by AppendTo.
func ReadRelayState(d *journal.Decoder) RelayState {
	d.ExpectVersion(relayStateVersion)
	return RelayState{
		Closed:  d.Bool(),
		Cycles:  d.I64(),
		Aborted: d.I64(),
		Pending: d.Dur(),
		Waited:  d.Dur(),
		Fail:    FailMode(d.Int()),
	}
}

// AppendState serializes the whole fabric into e.
func (f *Fabric) AppendState(e *journal.Encoder) {
	e.Int(len(f.pairs))
	for _, p := range f.pairs {
		p.Charge.State().AppendTo(e)
		p.Discharge.State().AppendTo(e)
	}
	f.P1.State().AppendTo(e)
	f.P2.State().AppendTo(e)
	f.P3.State().AppendTo(e)
}

// RestoreState decodes a fabric serialized by AppendState into f.
func (f *Fabric) RestoreState(d *journal.Decoder) error {
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(f.pairs) {
		return fmt.Errorf("relay: restoring %d pairs into fabric of %d", n, len(f.pairs))
	}
	for _, p := range f.pairs {
		p.Charge.Restore(ReadRelayState(d))
		p.Discharge.Restore(ReadRelayState(d))
	}
	f.P1.Restore(ReadRelayState(d))
	f.P2.Restore(ReadRelayState(d))
	f.P3.Restore(ReadRelayState(d))
	return d.Err()
}
