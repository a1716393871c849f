package relay

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insure/internal/journal"
)

// TestWeldedDischargeBlocksChargeClose locks in the interlock hardening:
// commanding Charging while the discharge contact is welded closed must
// NOT close the charge contact — the unit would bridge the charge and
// discharge buses and backfeed the PV string.
func TestWeldedDischargeBlocksChargeClose(t *testing.T) {
	p := NewPair(0)
	p.SetMode(Discharging)
	p.Tick(SwitchTime)
	p.Discharge.Fail(FailWeldClosed)

	p.SetMode(Charging)
	if p.Charge.Closed() {
		t.Fatal("charge contact closed while welded discharge contact is still closed")
	}
	if !p.Discharge.Closed() {
		t.Fatal("welded discharge contact should report closed")
	}
	// Mirror case: welded charge contact blocks the discharge close.
	q := NewPair(1)
	q.SetMode(Charging)
	q.Tick(SwitchTime)
	q.Charge.Fail(FailWeldClosed)
	q.SetMode(Discharging)
	if q.Discharge.Closed() {
		t.Fatal("discharge contact closed while welded charge contact is still closed")
	}
}

// exercise drives the fabric through a deterministic mode schedule so the
// round-trip tests have non-trivial wear counters and in-flight settles.
func exercise(f *Fabric, steps int) {
	modes := []Mode{Charging, Open, Discharging, Open}
	for s := 0; s < steps; s++ {
		for i := 0; i < f.Size(); i++ {
			f.Pair(i).SetMode(modes[(s+i)%len(modes)])
		}
		// Odd tick size: some switches stay in flight across captures.
		f.Tick(10 * time.Millisecond)
	}
}

// TestFabricStateRoundTrip proves capture → restore → continue is
// byte-identical to never having stopped, including mid-settle switches
// and injected faults.
func TestFabricStateRoundTrip(t *testing.T) {
	live := NewFabric(4)
	exercise(live, 7)
	live.Pair(2).Discharge.Fail(FailWeldClosed)
	live.Pair(3).Charge.Fail(FailStuckOpen)

	var e journal.Encoder
	live.Walk(journal.Encoding(&e))

	restored := NewFabric(4)
	d := journal.NewDecoder(e.Bytes())
	restored.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after restore", d.Remaining())
	}

	// Continue both fabrics through the same schedule; their serialized
	// states must stay byte-identical at every step.
	for s := 0; s < 12; s++ {
		exercise(live, 1)
		exercise(restored, 1)
		var a, b journal.Encoder
		live.Walk(journal.Encoding(&a))
		restored.Walk(journal.Encoding(&b))
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Fatalf("step %d: restored fabric diverged from live fabric", s)
		}
	}
	if live.Pair(2).Discharge.FailState() != FailWeldClosed {
		t.Error("weld fault lost in round trip")
	}
}

// TestFabricRestoreSizeMismatch proves a state blob for the wrong fleet
// size is rejected.
func TestFabricRestoreSizeMismatch(t *testing.T) {
	small := NewFabric(2)
	big := NewFabric(5)
	var e journal.Encoder
	small.Walk(journal.Encoding(&e))
	d := journal.NewDecoder(e.Bytes())
	big.Walk(journal.Decoding(d))
	if d.Err() == nil {
		t.Error("codec restore accepted wrong pair count")
	}
}

// TestRelayStateRoundTripMidSettle captures a relay mid-switch and checks
// the settle completes after restore exactly as it would have live.
func TestRelayStateRoundTripMidSettle(t *testing.T) {
	r := New("bat0-CR")
	r.Set(true)
	r.Tick(10 * time.Millisecond) // 15 ms of settle left

	clone := New("bat0-CR")
	clone.Restore(r.State())
	if clone.Settled() {
		t.Fatal("restored relay lost its in-flight switch")
	}
	var settled time.Duration
	clone.OnSettle = func(w time.Duration) { settled = w }
	clone.Tick(15 * time.Millisecond)
	if !clone.Settled() || settled != 25*time.Millisecond {
		t.Fatalf("restored relay settled=%v waited=%v, want settle after 25ms total",
			clone.Settled(), settled)
	}
}

// TestStateLayoutGolden pins the bytes of both relay layouts: an exercised,
// faulted fabric and one of its relays, caught mid-settle, encode to the
// committed testdata, and each image decodes into a fresh value that
// re-encodes byte for byte.
func TestStateLayoutGolden(t *testing.T) {
	live := NewFabric(4)
	exercise(live, 7)
	live.Pair(2).Discharge.Fail(FailWeldClosed)
	live.Pair(3).Charge.Fail(FailStuckOpen)

	var re journal.Encoder
	live.Pair(2).Discharge.st.walk(journal.Encoding(&re))
	matchGolden(t, "relay_state.golden", re.Bytes())
	var st RelayState
	st.walk(journal.Decoding(journal.NewDecoder(re.Bytes())))
	var re2 journal.Encoder
	st.walk(journal.Encoding(&re2))
	if !bytes.Equal(re2.Bytes(), re.Bytes()) {
		t.Error("decoded relay state does not re-encode byte for byte")
	}

	var e journal.Encoder
	live.Walk(journal.Encoding(&e))
	matchGolden(t, "fabric.golden", e.Bytes())
	fresh := NewFabric(4)
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.Walk(journal.Encoding(&e2))
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded fabric does not re-encode byte for byte")
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
