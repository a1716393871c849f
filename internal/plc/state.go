package plc

import (
	"insure/internal/journal"
)

// regStateVersion guards the binary layout of a serialized RegisterFile.
const regStateVersion = 2

// Walk is the register file's one persisted layout: its commanded state,
// the coil bank, behind a count that must match the file's. The input
// registers are deliberately left out: they mirror the plant and are
// refreshed by the first scan after a restart, so persisting them would
// only let stale sensor codes mask live readings during recovery. The walk holds the file's lock, so a Modbus client
// never sees a half-restored bank.
func (r *RegisterFile) Walk(c journal.Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Version(regStateVersion)
	c.Size(len(r.coils), "plc: restoring %d coils into bank of %d")
	for i := range r.coils {
		c.Bool(&r.coils[i])
	}
}
