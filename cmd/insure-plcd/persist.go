package main

import (
	"fmt"
	"sync"
	"time"

	"insure/internal/journal"
)

// panelStateVersion guards the binary layout of a serialized panel.
const panelStateVersion = 2

// panelSnapshotEvery is the snapshot cadence in plant ticks: at the
// daemon's 1 s tick a snapshot rotates the journal once a minute.
const panelSnapshotEvery = 60

// walkState is the panel image's one layout: everything a restarted
// daemon needs to resume, the sim-elapsed clock, the battery wells and
// wear counters, the relay fabric (positions, in-flight settles, faults),
// and the PLC's command coils. Input registers are plant-mirrored and
// refreshed by the first scan after restore; persisting them would mask
// live readings. Decoding mutates the EXISTING bank, fabric, and register
// file in place: the Modbus server and telemetry closures hold pointers
// into them, so recovery must never swap objects.
func (p *panel) walkState(c journal.Codec, elapsed *time.Duration) {
	c.Version(panelStateVersion)
	journal.I64(c, elapsed)
	p.Bank.Walk(c)
	p.Fabric.Walk(c)
	p.PLC.Regs.Walk(c)
}

// appendState serializes the panel, taken at elapsed, into e.
func (p *panel) appendState(e *journal.Encoder, elapsed time.Duration) {
	p.walkState(journal.Encoding(e), &elapsed)
}

// restoreState decodes a state image into p and returns the elapsed clock
// the image was taken at.
func (p *panel) restoreState(b []byte) (time.Duration, error) {
	d := journal.NewDecoder(b)
	var elapsed time.Duration
	p.walkState(journal.Decoding(d), &elapsed)
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("panel state: %w", err)
	}
	return elapsed, nil
}

// panelStore journals the panel state once per plant tick. All store
// access is mutex-guarded: the scrubber sweeps the directory under the same
// lock, and /healthz reads Err from an HTTP goroutine.
type panelStore struct {
	dir string

	mu    sync.Mutex
	store *journal.Store
	enc   journal.Encoder
	ticks int
	err   error
}

// openPanelStore opens (or creates) the state directory. Any torn tail
// left by a crash is truncated away here.
func openPanelStore(dir string) (*panelStore, error) {
	st, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	return &panelStore{dir: dir, store: st}, nil
}

// scrubTarget exposes the store directory to a journal.Scrubber, sharing
// the store mutex so sweeps serialize with commits.
func (s *panelStore) scrubTarget() journal.Target {
	return journal.Target{Name: "panel-state", Dir: s.dir, Lock: &s.mu}
}

// restoreInto loads the newest committed state image into p. Returns the
// image's elapsed clock and whether any state was found.
func (s *panelStore) restoreInto(p *panel) (time.Duration, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := journal.Load(s.dir)
	if err != nil {
		return 0, false, err
	}
	payload := res.Newest()
	if payload == nil {
		return 0, false, nil
	}
	elapsed, err := p.restoreState(payload)
	if err != nil {
		return 0, false, err
	}
	return elapsed, true, nil
}

// commit journals the panel's current state. Errors are sticky and
// surfaced through Err — durability degrades, the plant keeps running.
func (s *panelStore) commit(p *panel, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks++
	s.enc.Reset()
	p.appendState(&s.enc, elapsed)
	var err error
	if s.ticks%panelSnapshotEvery == 0 {
		err = s.store.Snapshot(s.enc.Bytes())
	} else {
		_, err = s.store.Append(s.enc.Bytes())
	}
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Err returns the first commit error, or nil.
func (s *panelStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close closes the underlying journal.
func (s *panelStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Close()
}
