package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insure/internal/sim"
	"insure/internal/trace"
)

// TestManagerLayoutGolden pins the bytes of the manager's image with its
// optional sections both present and absent: a survival-armed manager 4 h
// into a day with a quarantined unit (forecast, survival, relay-intent and
// fault-event sections all present), a plain manager 3 h in (relay intent
// only), and a fresh one (none). Each image matches the committed testdata
// and decodes into a fresh manager that re-encodes byte for byte.
func TestManagerLayoutGolden(t *testing.T) {
	armed := func() *Manager {
		cfg := sim.DefaultConfig(trace.LowGeneration())
		cfg.RecordEvery = time.Minute
		cfg.InitialSoC = 0.30
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			t.Fatal(err)
		}
		start, _ := sys.Span()
		wireInjector(t, sys, "drift:1@"+(start+time.Hour).String()+":1.5")
		m := New(survivalManagerConfig(), cfg.BatteryCount)
		tickRange(sys, m, start, start+4*time.Hour, time.Second)
		if m.fc == nil || m.sv == nil || m.lastModes == nil || len(m.watch.events) == 0 {
			t.Fatalf("armed manager is missing a section: fc %v sv %v modes %v events %d",
				m.fc != nil, m.sv != nil, m.lastModes != nil, len(m.watch.events))
		}
		return m
	}
	plain := func() *Manager {
		cfg := sim.DefaultConfig(trace.FullSystemHigh())
		cfg.RecordEvery = time.Minute
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			t.Fatal(err)
		}
		start, _ := sys.Span()
		m := New(DefaultConfig(), cfg.BatteryCount)
		tickRange(sys, m, start, start+3*time.Hour, time.Second)
		if m.fc != nil || m.sv != nil || m.lastModes == nil {
			t.Fatal("plain manager should carry the relay-intent section alone")
		}
		return m
	}
	for _, tc := range []struct {
		golden string
		cfg    Config
		live   func() *Manager
	}{
		{"manager_armed.golden", survivalManagerConfig(), armed},
		{"manager_plain.golden", DefaultConfig(), plain},
		{"manager_fresh.golden", DefaultConfig(), func() *Manager { return New(DefaultConfig(), 6) }},
	} {
		img := tc.live().State()
		matchGolden(t, tc.golden, img)
		fresh := New(tc.cfg, 6)
		if err := fresh.Restore(img); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !bytes.Equal(fresh.State(), img) {
			t.Errorf("%s: decoded manager does not re-encode byte for byte", tc.golden)
		}
	}
}

// matchGolden compares an encoded layout with testdata/name. After a
// deliberate layout change, delete the golden and rerun to rewrite it.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		t.Errorf("wrote missing golden %s (%d bytes): %v", path, len(got), os.WriteFile(path, got, 0o644))
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoded %d bytes, golden has %d; the layout moved", path, len(got), len(want))
	}
}
