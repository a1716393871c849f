package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/plc"
	"insure/internal/relay"
)

// TestPanelLayoutGolden pins the bytes of the daemon's panel image: a
// panel with commanded relays, a welded contact, a moved topology and
// written setpoints, 30 s into its run, encodes to the committed testdata,
// and the image decodes into a freshly wired panel that re-encodes byte
// for byte.
func TestPanelLayoutGolden(t *testing.T) {
	p := testPanel(t, 4)
	for _, c := range []uint16{plc.CoilCharge(1), plc.CoilDischarge(2), plc.CoilDischarge(3)} {
		if err := p.PLC.Regs.WriteCoil(c, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PLC.Regs.WriteHolding(plc.HoldDischargeCapA10, []uint16{180, 85, 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if i == 12 {
			p.Fabric.Pair(3).Discharge.Fail(relay.FailWeldClosed)
		}
		p.tick(time.Second, time.Duration(i+1)*time.Second)
	}

	var e journal.Encoder
	p.appendState(&e, 30*time.Second)
	matchGolden(t, "panel.golden", e.Bytes())
	q := testPanel(t, 4)
	elapsed, err := q.restoreState(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	q.appendState(&e2, elapsed)
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded panel does not re-encode byte for byte")
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
