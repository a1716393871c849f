package core

import (
	"fmt"

	"insure/internal/forecast"
	"insure/internal/journal"
	"insure/internal/relay"
	"insure/internal/units"
)

// managerStateVersion guards the binary layout of a serialized Manager.
// v2 appended the survivability mode machine (survival.go) so a controller
// crash mid-emergency recovers into the same ladder rung.
const managerStateVersion = 2

// AppendState serializes the manager's complete mutable state — group
// table, discharge-history table, SPM/TPM phase, charge batch, forecast
// state, and the full faultwatch (quarantine flags, screen counters, and
// the quarantine event log) — into e. The encoding is fixed-width binary
// with bit-exact floats, so encode→decode→encode is byte-identical, and
// it appends into e's reusable buffer so the journaling path stays
// allocation-free at steady state.
//
// Config and scratch buffers are not state: configuration is rebuilt by
// the caller (a config change must not be masked by disk), and scratch is
// recomputed by the next control pass.
func (m *Manager) AppendState(e *journal.Encoder) {
	e.U8(managerStateVersion)
	n := len(m.groups)
	e.Int(n)
	for _, g := range m.groups {
		e.Int(int(g))
	}
	for _, v := range m.ahTable {
		e.F64(v)
	}
	e.F64(m.unused)
	e.Dur(m.elapsed)
	e.Dur(m.lastCoarse)
	e.Bool(m.started)
	e.F64(m.duty)
	e.Int(m.targetVM)
	e.Int(len(m.activeCharge))
	for _, i := range m.activeCharge {
		e.Int(i)
	}
	for _, v := range m.chargeStall {
		e.Int(v)
	}
	for _, v := range m.commissioned {
		e.Bool(v)
	}
	e.Int(m.bestBatchVMs)

	e.Bool(m.fc != nil)
	if m.fc != nil {
		st := m.fc.State()
		e.F64(st.Ratio)
		e.Bool(st.HaveObs)
		e.F64(st.Variance)
	}

	e.Bool(m.lastModes != nil)
	if m.lastModes != nil {
		for _, mode := range m.lastModes {
			e.Int(int(mode))
		}
	}

	e.Int(m.seenBrownouts)
	e.Dur(m.holdDownUntil)
	e.Int(m.screenings)
	e.Int(m.capEvents)
	e.Int(m.boostEvents)
	e.Int(m.recoveries)
	e.Int(m.reconciliations)

	// faultwatch
	for _, v := range m.watch.quarantined {
		e.Bool(v)
	}
	for _, v := range m.watch.prevSoC {
		e.F64(v)
	}
	for _, v := range m.watch.prevCur {
		e.F64(float64(v))
	}
	for _, v := range m.watch.hasPrevCur {
		e.Bool(v)
	}
	e.F64(float64(m.watch.prevExpect))
	e.Bool(m.watch.hasExpect)
	for _, v := range m.watch.lowFor {
		e.Int(v)
	}
	for _, v := range m.watch.ghostFor {
		e.Int(v)
	}
	for _, v := range m.watch.frozenFor {
		e.Int(v)
	}
	for _, v := range m.watch.bandFor {
		e.Int(v)
	}
	e.Int(len(m.watch.events))
	for _, ev := range m.watch.events {
		e.Dur(ev.At)
		e.Int(ev.Unit)
		e.String(ev.Reason)
	}

	// survivability mode machine (v2)
	e.Bool(m.sv != nil)
	if m.sv != nil {
		e.Int(int(m.sv.mode))
		e.Dur(m.sv.modeSince)
		e.Int(m.sv.transitions)
		e.Int(m.sv.bsTarget)
		e.F64(m.sv.shedWatts)
	}
}

// RestoreState overwrites the manager's mutable state from d. The unit
// count must match the manager's configuration; telemetry attachment and
// config survive untouched.
func (m *Manager) RestoreState(d *journal.Decoder) error {
	d.ExpectVersion(managerStateVersion)
	n := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if n != len(m.groups) {
		return fmt.Errorf("core: restoring state for %d units into manager of %d", n, len(m.groups))
	}
	for i := range m.groups {
		m.groups[i] = Group(d.Int())
	}
	for i := range m.ahTable {
		m.ahTable[i] = d.F64()
	}
	m.unused = d.F64()
	m.elapsed = d.Dur()
	m.lastCoarse = d.Dur()
	m.started = d.Bool()
	m.duty = d.F64()
	m.targetVM = d.Int()
	nActive := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nActive < 0 || nActive > n {
		return fmt.Errorf("core: restoring %d active-charge entries for %d units", nActive, n)
	}
	m.activeCharge = m.activeCharge[:0]
	for i := 0; i < nActive; i++ {
		m.activeCharge = append(m.activeCharge, d.Int())
	}
	for i := range m.chargeStall {
		m.chargeStall[i] = d.Int()
	}
	for i := range m.commissioned {
		m.commissioned[i] = d.Bool()
	}
	m.bestBatchVMs = d.Int()

	if hasFC := d.Bool(); hasFC {
		st := forecast.EstimatorState{
			Ratio:    d.F64(),
			HaveObs:  d.Bool(),
			Variance: d.F64(),
		}
		if m.fc != nil {
			m.fc.Restore(st)
		}
	}

	if hasModes := d.Bool(); hasModes {
		if m.lastModes == nil {
			m.lastModes = make([]relay.Mode, n)
		}
		for i := range m.lastModes {
			m.lastModes[i] = relay.Mode(d.Int())
		}
	} else {
		m.lastModes = nil
	}

	m.seenBrownouts = d.Int()
	m.holdDownUntil = d.Dur()
	m.screenings = d.Int()
	m.capEvents = d.Int()
	m.boostEvents = d.Int()
	m.recoveries = d.Int()
	m.reconciliations = d.Int()

	for i := range m.watch.quarantined {
		m.watch.quarantined[i] = d.Bool()
	}
	m.soc = socMemo{}
	for i := range m.watch.prevSoC {
		m.watch.prevSoC[i] = d.F64()
	}
	for i := range m.watch.prevCur {
		m.watch.prevCur[i] = units.Amp(d.F64())
	}
	for i := range m.watch.hasPrevCur {
		m.watch.hasPrevCur[i] = d.Bool()
	}
	m.watch.prevExpect = units.Amp(d.F64())
	m.watch.hasExpect = d.Bool()
	for i := range m.watch.lowFor {
		m.watch.lowFor[i] = d.Int()
	}
	for i := range m.watch.ghostFor {
		m.watch.ghostFor[i] = d.Int()
	}
	for i := range m.watch.frozenFor {
		m.watch.frozenFor[i] = d.Int()
	}
	for i := range m.watch.bandFor {
		m.watch.bandFor[i] = d.Int()
	}
	nEvents := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nEvents < 0 || nEvents > 1<<20 {
		return fmt.Errorf("core: implausible fault-event count %d", nEvents)
	}
	m.watch.events = m.watch.events[:0]
	for i := 0; i < nEvents; i++ {
		m.watch.events = append(m.watch.events, FaultEvent{
			At:     d.Dur(),
			Unit:   d.Int(),
			Reason: d.String(),
		})
	}

	if hasSv := d.Bool(); hasSv {
		mode := OpMode(d.Int())
		since := d.Dur()
		transitions := d.Int()
		bsTarget := d.Int()
		shed := d.F64()
		// If the config no longer enables survival the fields are read and
		// dropped — a config change must not be masked by disk.
		if m.sv != nil {
			m.sv.mode = mode
			m.sv.modeSince = since
			m.sv.transitions = transitions
			m.sv.bsTarget = bsTarget
			m.sv.shedWatts = shed
		}
	}
	return d.Err()
}

// State returns the manager's serialized state as a fresh byte slice —
// the convenience form for tests and the sim's kill/resume path. The
// journaling hot path uses AppendState with a reused encoder instead.
func (m *Manager) State() []byte {
	var e journal.Encoder
	m.AppendState(&e)
	return append([]byte(nil), e.Bytes()...)
}

// Restore overwrites the manager's state from a State() payload.
func (m *Manager) Restore(b []byte) error {
	return m.RestoreState(journal.NewDecoder(b))
}
