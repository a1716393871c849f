package battery

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

// workBank drives the bank through a deterministic charge/discharge/rest
// mixture so its wells, diffusion state, and coulomb counters are all
// non-trivial.
func workBank(b *Bank, steps int) {
	for s := 0; s < steps; s++ {
		switch s % 3 {
		case 0:
			b.DischargeSet([]int{0, 1}, 120, time.Second)
			b.Unit(2).Rest(time.Second)
			b.Unit(3).Charge(2, time.Second)
		case 1:
			b.ChargeSet([]int{2, 3}, 300, time.Second)
			b.Unit(0).Rest(time.Second)
			b.Unit(1).Discharge(4, time.Second)
		case 2:
			b.RestAll(time.Second)
		}
	}
}

// TestBankStateRoundTrip proves capture → restore → N steps is
// bit-identical to N uninterrupted steps, for every unit field the codec
// carries (wells, diffusion memory, lifetime counters, fault derating).
func TestBankStateRoundTrip(t *testing.T) {
	live := MustNewBank(DefaultParams(), 4, 0.7)
	workBank(live, 50)
	live.Unit(1).InjectCapacityLoss(0.3)

	var e journal.Encoder
	live.AppendState(&e)

	restored := MustNewBank(DefaultParams(), 4, 0.1) // deliberately different start
	d := journal.NewDecoder(e.Bytes())
	restored.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after restore", d.Remaining())
	}

	for s := 0; s < 200; s++ {
		workBank(live, 1)
		workBank(restored, 1)
	}
	var a, b journal.Encoder
	live.AppendState(&a)
	restored.AppendState(&b)
	if string(a.Bytes()) != string(b.Bytes()) {
		for i := 0; i < live.Size(); i++ {
			if live.Unit(i).State() != restored.Unit(i).State() {
				t.Errorf("unit %d diverged:\n live     %+v\n restored %+v",
					i, live.Unit(i).State(), restored.Unit(i).State())
			}
		}
		t.Fatal("restored bank diverged from uninterrupted bank")
	}
	// The injected fault must survive the trip: effective capacity derated
	// identically on both sides.
	if live.Unit(1).EffectiveCapacity() != restored.Unit(1).EffectiveCapacity() {
		t.Error("fault derating lost in round trip")
	}
}

// TestUnitStateObservablesSurviveRestore checks restore reproduces the
// external view (SoC, voltage, wear), not just raw fields.
func TestUnitStateObservablesSurviveRestore(t *testing.T) {
	live := MustNewBank(DefaultParams(), 1, 0.8)
	u := live.Unit(0)
	u.Discharge(5, 90*time.Second)
	u.Charge(3, 30*time.Second)
	u.Discharge(2, 10*time.Second)

	restored := MustNewBank(DefaultParams(), 1, 0.2)
	v := restored.Unit(0)
	var e journal.Encoder
	live.AppendState(&e)
	d := journal.NewDecoder(e.Bytes())
	restored.Walk(journal.Decoding(d))
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if u.SoC() != v.SoC() || u.TerminalVoltage() != v.TerminalVoltage() {
		t.Fatalf("observables diverged: SoC %v vs %v, V %v vs %v",
			u.SoC(), v.SoC(), u.TerminalVoltage(), v.TerminalVoltage())
	}
	if u.Throughput() != v.Throughput() || u.EquivalentCycles() != v.EquivalentCycles() {
		t.Fatalf("wear counters diverged")
	}
	// And the next step from the shared state is bit-identical.
	gu := u.Discharge(4, time.Second)
	gv := v.Discharge(4, time.Second)
	if gu != gv || u.State() != v.State() {
		t.Fatal("first post-restore step diverged")
	}
}

// TestBankRestoreSizeMismatch rejects state blobs for the wrong fleet
// size.
func TestBankRestoreSizeMismatch(t *testing.T) {
	small := MustNewBank(DefaultParams(), 2, 0.5)
	big := MustNewBank(DefaultParams(), 6, 0.5)
	var e journal.Encoder
	small.AppendState(&e)
	d := journal.NewDecoder(e.Bytes())
	big.Walk(journal.Decoding(d))
	if d.Err() == nil {
		t.Error("codec restore accepted wrong unit count")
	}
}

// TestStateLayoutGolden pins the bytes of both battery layouts: a worked,
// faulted bank and one of its units encode to the committed testdata, and
// each image decodes into a fresh value that re-encodes byte for byte.
func TestStateLayoutGolden(t *testing.T) {
	live := MustNewBank(DefaultParams(), 4, 0.7)
	workBank(live, 50)
	live.Unit(1).InjectCapacityLoss(0.3)

	var ue journal.Encoder
	live.Unit(1).st.walk(journal.Encoding(&ue))
	matchGolden(t, "unit_state.golden", ue.Bytes())
	var st UnitState
	st.walk(journal.Decoding(journal.NewDecoder(ue.Bytes())))
	var ue2 journal.Encoder
	st.walk(journal.Encoding(&ue2))
	if !bytes.Equal(ue2.Bytes(), ue.Bytes()) {
		t.Error("decoded unit state does not re-encode byte for byte")
	}

	var e journal.Encoder
	live.AppendState(&e)
	matchGolden(t, "bank.golden", e.Bytes())
	fresh := MustNewBank(DefaultParams(), 4, 0.1)
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.AppendState(&e2)
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded bank does not re-encode byte for byte")
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
