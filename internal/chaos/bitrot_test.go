package chaos

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"insure/internal/diskfault"
)

// TestBitrotStormSelfHealing is the self-healing storage acceptance
// campaign: a three-day storm of torn writes, failed fsyncs, sick-disk
// windows, lost renames, and at-rest decay under both the control-plane
// state journal and the fleet's migration log and checkpoint images.
// Recovery must never resume from silently corrupted state, rollback must
// stay inside one snapshot window, every corruption of mirrored state
// must be repaired, and the guard counters must stay zero.
func TestBitrotStormSelfHealing(t *testing.T) {
	rep, err := RunBitrotStorm(DefaultBitrotStormConfig(701))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount > 0 {
		t.Fatalf("%s\nviolations:\n%s", rep, joinViolations(rep.Violations))
	}
	if rep.Restarts == 0 || rep.Commits == 0 {
		t.Fatalf("storm exercised nothing: %s", rep)
	}
	if rep.ScrubDetected == 0 || rep.ScrubRepaired == 0 {
		t.Fatalf("storm decay never met the scrubber: %s", rep)
	}
	if rep.MaxRollback > rep.Ticks {
		t.Fatalf("nonsensical rollback: %s", rep)
	}
	pinHash(t, "storm", rep.StormHash, 0x8ea28d7cd3366f11)
}

// TestBitrotStormRerunIsBitIdentical reruns the acceptance storm with the
// same seed: the storm hash — which folds every recovery outcome, scrub
// repair, fault count, and fleet trajectory — must match exactly, proving
// the whole fault-injection and repair path is a deterministic function
// of the seed.
func TestBitrotStormRerunIsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("rerun storm skipped in -short")
	}
	cfg := DefaultBitrotStormConfig(702)
	a, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.StormHash != b.StormHash {
		t.Errorf("same-seed storms diverged: %#x != %#x", a.StormHash, b.StormHash)
	}
	if a.String() != b.String() {
		t.Errorf("same-seed storm accounting diverged:\n 1st: %s\n 2nd: %s", a, b)
	}
}

// TestBitrotStormCleanDiskIsQuiet pins the harness itself: with every
// fault rate zeroed the same schedule of kills must run with no scrub
// detections, no rollback beyond the torn-kill slack, and no violations.
func TestBitrotStormCleanDiskIsQuiet(t *testing.T) {
	cfg := DefaultBitrotStormConfig(703)
	cfg.Days = 1
	cfg.StateFaults = diskfault.Config{}
	cfg.FleetFaults = diskfault.Config{}
	rep, err := RunBitrotStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The clean run trips the "storm injected nothing" sentinels — that is
	// the point of them — and a one-day run never reaches the trough-day
	// surge that produces checkpoint images. Nothing else may fire.
	for _, v := range rep.Violations {
		switch v {
		case "storm injected no write or fsync faults on the state lane",
			"storm decayed nothing at rest on the state lane",
			"storm decayed nothing at rest on the fleet lane",
			"storm evacuation landed no checkpoint images":
		default:
			t.Errorf("clean disk produced a real violation: %s", v)
		}
	}
	if rep.ScrubDetected != 0 || rep.ScrubRepaired != 0 {
		t.Errorf("clean disk produced scrub repairs: %s", rep)
	}
	// Sick windows still open on a clean disk (the degraded switch is not
	// a rate), so rollback may reach the window length — one snapshot
	// window — but never past the violation bound.
	if rep.MaxRollback > bitrotSnapshotEvery+bitrotTornSlack {
		t.Errorf("clean disk rollback %d exceeds one snapshot window", rep.MaxRollback)
	}
	pinHash(t, "storm", rep.StormHash, 0x6a1ca4a9ac6454de)
}

// TestBitrotStateLayoutGolden pins the bytes of the harness's journaled
// image: three ticks of a seeded hash chain encode to the committed
// testdata, and each image decodes to its tick and hash and re-encodes
// byte for byte.
func TestBitrotStateLayoutGolden(t *testing.T) {
	s := newBitrotState(701, 120)
	var all, again []byte
	for _, tick := range []int{0, 59, 119} {
		img := append([]byte(nil), s.payload(tick)...)
		all = append(all, img...)
		got, h, err := s.decode(img)
		if err != nil {
			t.Fatal(err)
		}
		if got != tick || h != s.hashes[tick] {
			t.Fatalf("tick %d decoded as (%d, %#x), want hash %#x", tick, got, h, s.hashes[tick])
		}
		again = append(again, s.payload(got)...)
	}
	matchGolden(t, "bitrot_state.golden", all)
	if !bytes.Equal(again, all) {
		t.Error("decoded harness images do not re-encode byte for byte")
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
