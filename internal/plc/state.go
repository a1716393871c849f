package plc

import (
	"fmt"

	"insure/internal/journal"
)

// regStateVersion guards the binary layout of a serialized RegisterFile.
const regStateVersion = 1

// AppendState serializes the commanded state of the register file, its
// coil and holding banks, into e. The discrete and input banks are
// deliberately left out: they mirror the plant and are refreshed by the
// first scan after a restart, so persisting them would only let stale
// sensor codes mask live readings during recovery.
func (r *RegisterFile) AppendState(e *journal.Encoder) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e.U8(regStateVersion)
	e.Int(len(r.coils))
	for _, c := range r.coils {
		e.Bool(c)
	}
	e.Int(len(r.holding))
	for _, h := range r.holding {
		e.U16(h)
	}
}

// RestoreState decodes banks serialized by AppendState into r.
func (r *RegisterFile) RestoreState(d *journal.Decoder) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.ExpectVersion(regStateVersion)
	nc := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nc != len(r.coils) {
		return fmt.Errorf("plc: restoring %d coils into bank of %d", nc, len(r.coils))
	}
	for i := range r.coils {
		r.coils[i] = d.Bool()
	}
	nh := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nh != len(r.holding) {
		return fmt.Errorf("plc: restoring %d holding regs into bank of %d", nh, len(r.holding))
	}
	for i := range r.holding {
		r.holding[i] = d.U16()
	}
	return d.Err()
}
