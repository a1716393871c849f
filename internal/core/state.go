package core

import (
	"insure/internal/forecast"
	"insure/internal/journal"
	"insure/internal/relay"
)

// managerStateVersion guards the binary layout of a serialized Manager.
// v2 appended the survivability mode machine (survival.go) so a controller
// crash mid-emergency recovers into the same ladder rung.
const managerStateVersion = 2

// Walk is the manager's one persisted layout, its complete mutable state:
// group table, discharge-history table, SPM/TPM phase, charge batch,
// forecast state, relay intent, the full faultwatch (quarantine flags,
// screen counters, and the quarantine event log) and the survivability
// mode machine. The encoding is fixed-width binary with bit-exact floats,
// so encode→decode→encode is byte-identical, and it appends into the
// encoder's reusable buffer so the journaling path stays allocation-free
// at steady state. Decoding requires the unit count to match the
// manager's configuration; telemetry attachment and config survive
// untouched.
//
// Config and scratch buffers are not state: configuration is rebuilt by
// the caller (a config change must not be masked by disk), and scratch is
// recomputed by the next control pass.
func (m *Manager) Walk(c journal.Codec) {
	c.Version(managerStateVersion)
	n := len(m.groups)
	c.Size(n, "core: restoring state for %d units into manager of %d")
	for i := range m.groups {
		journal.Int(c, &m.groups[i])
	}
	for i := range m.ahTable {
		journal.F64(c, &m.ahTable[i])
	}
	journal.F64(c, &m.unused)
	journal.I64(c, &m.elapsed)
	journal.I64(c, &m.lastCoarse)
	c.Bool(&m.started)
	journal.F64(c, &m.duty)
	journal.Int(c, &m.targetVM)
	journal.Slice(c, &m.activeCharge, n, "core: restoring %d active-charge entries for %d units")
	for i := range m.activeCharge {
		journal.Int(c, &m.activeCharge[i])
	}
	for i := range m.chargeStall {
		journal.Int(c, &m.chargeStall[i])
	}
	for i := range m.commissioned {
		c.Bool(&m.commissioned[i])
	}
	journal.Int(c, &m.bestBatchVMs)

	// The forecast section is read and dropped when the config no longer
	// enables the estimator: a config change must not be masked by disk.
	hasFC := m.fc != nil
	c.Bool(&hasFC)
	if hasFC {
		var st forecast.EstimatorState
		if m.fc != nil {
			st = m.fc.State()
		}
		journal.F64(c, &st.Ratio)
		c.Bool(&st.HaveObs)
		journal.F64(c, &st.Variance)
		if c.Decoding() && m.fc != nil {
			m.fc.Restore(st)
			m.fgen.restores++ // no scan follows: ForecastGen must move
		}
	}

	hasModes := m.lastModes != nil
	c.Bool(&hasModes)
	switch {
	case !hasModes:
		m.lastModes = nil
	case m.lastModes == nil:
		m.lastModes = make([]relay.Mode, n)
	}
	for i := range m.lastModes {
		journal.Int(c, &m.lastModes[i])
	}

	journal.Int(c, &m.seenBrownouts)
	journal.I64(c, &m.holdDownUntil)
	journal.Int(c, &m.screenings)
	journal.Int(c, &m.capEvents)
	journal.Int(c, &m.boostEvents)
	journal.Int(c, &m.recoveries)
	journal.Int(c, &m.reconciliations)

	// faultwatch
	for i := range m.watch.quarantined {
		c.Bool(&m.watch.quarantined[i])
	}
	if c.Decoding() {
		m.soc = socMemo{} // MeanSoC reads the flags but does not key on them
	}
	for i := range m.watch.prevSoC {
		journal.F64(c, &m.watch.prevSoC[i])
	}
	for i := range m.watch.prevCur {
		journal.F64(c, &m.watch.prevCur[i])
	}
	for i := range m.watch.hasPrevCur {
		c.Bool(&m.watch.hasPrevCur[i])
	}
	journal.F64(c, &m.watch.prevExpect)
	c.Bool(&m.watch.hasExpect)
	for i := range m.watch.lowFor {
		journal.Int(c, &m.watch.lowFor[i])
	}
	for i := range m.watch.ghostFor {
		journal.Int(c, &m.watch.ghostFor[i])
	}
	for i := range m.watch.frozenFor {
		journal.Int(c, &m.watch.frozenFor[i])
	}
	for i := range m.watch.bandFor {
		journal.Int(c, &m.watch.bandFor[i])
	}
	journal.Slice(c, &m.watch.events, 1<<20, "core: implausible fault-event count %[1]d")
	for i := range m.watch.events {
		ev := &m.watch.events[i]
		journal.I64(c, &ev.At)
		journal.Int(c, &ev.Unit)
		c.String(&ev.Reason)
	}

	// survivability mode machine (v2), read and dropped like the forecast
	// section when the config no longer enables it
	hasSv := m.sv != nil
	c.Bool(&hasSv)
	if hasSv {
		sv := m.sv
		if sv == nil {
			sv = new(survival)
		}
		journal.Int(c, &sv.mode)
		journal.I64(c, &sv.modeSince)
		journal.Int(c, &sv.transitions)
		journal.Int(c, &sv.bsTarget)
		journal.F64(c, &sv.shedWatts)
	}
}

// AppendState serializes the manager's state into e.
func (m *Manager) AppendState(e *journal.Encoder) { m.Walk(journal.Encoding(e)) }

// State returns the manager's serialized state as a fresh byte slice —
// the convenience form for tests and the sim's kill/resume path. The
// journaling hot path walks a reused encoder instead.
func (m *Manager) State() []byte {
	var e journal.Encoder
	m.Walk(journal.Encoding(&e))
	return append([]byte(nil), e.Bytes()...)
}

// Restore overwrites the manager's state from a State() payload.
func (m *Manager) Restore(b []byte) error {
	d := journal.NewDecoder(b)
	m.Walk(journal.Decoding(d))
	return d.Err()
}
