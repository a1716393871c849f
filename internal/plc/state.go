package plc

import (
	"insure/internal/journal"
)

// regStateVersion guards the binary layout of a serialized RegisterFile.
const regStateVersion = 1

// Walk is the register file's one persisted layout: its commanded state,
// the coil and holding banks, each behind a count that must match the
// file's. The discrete and input banks are deliberately left out: they
// mirror the plant and are refreshed by the first scan after a restart,
// so persisting them would only let stale sensor codes mask live readings
// during recovery. The walk holds the file's lock, so a Modbus client
// never sees a half-restored bank.
func (r *RegisterFile) Walk(c journal.Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Version(regStateVersion)
	c.Size(len(r.coils), "plc: restoring %d coils into bank of %d")
	for i := range r.coils {
		c.Bool(&r.coils[i])
	}
	c.Size(len(r.holding), "plc: restoring %d holding regs into bank of %d")
	for i := range r.holding {
		c.U16(&r.holding[i])
	}
}
