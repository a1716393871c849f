package journal

import (
	"bytes"
	"os"
	"testing"
	"time"

	"insure/internal/telemetry"
)

// buildStore writes a store with one sealed segment, a snapshot
// generation in each slot, and a live journal tail.
func buildStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte{0xA0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot([]byte("gen-1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte{0xB0, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot([]byte("gen-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubRepairsSnapshotMirror(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	corruptByte(t, dir, -1, slotMirror(0))

	rep, err := ScrubDir(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
		t.Fatalf("report = %+v, want 1 detected / 1 repaired / 0 unrepairable", rep)
	}
	p := mustRead(t, dir, slotName(0))
	m := mustRead(t, dir, slotMirror(0))
	if !bytes.Equal(p, m) {
		t.Error("mirror not rebuilt from primary")
	}
}

func TestScrubRepairsSegmentFromUnion(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)

	// Find the surviving sealed segment and damage a DIFFERENT record in
	// each copy: neither copy is intact, but their union is complete.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	found := false
	for _, e := range names {
		if s, ok := segSeq(e.Name()); ok {
			seq, found = s, true
		}
	}
	if !found {
		t.Fatal("no sealed segment on disk")
	}
	p, m := segName(seq)
	corruptByte(t, dir, recordHeader, p)         // first record's payload
	corruptByte(t, dir, 2*(recordHeader+2)-1, m) // second record's payload

	rep, err := ScrubDir(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired < 2 || rep.Unrepairable != 0 {
		t.Fatalf("report = %+v, want union repair of both copies", rep)
	}
	if !bytes.Equal(mustRead(t, dir, p), mustRead(t, dir, m)) {
		t.Error("segment pair differs after union repair")
	}
	sc := scanJournal(mustRead(t, dir, p), false)
	if sc.torn || sc.midstream != 0 || !segmentComplete(sc.recs, seq) {
		t.Errorf("repaired segment not intact: %+v", sc)
	}
}

func TestScrubCountsUnrepairableSlot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("only-gen")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, dir, -1, slotName(0), slotMirror(0))
	rep, err := ScrubDir(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrepairable != 1 {
		t.Fatalf("report = %+v, want 1 unrepairable", rep)
	}
}

func TestScrubReportsActiveMidstream(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte{0xAA, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, dir, recordHeader+2+recordHeader, journalName, journalMirror)
	rep, err := ScrubDir(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Midstream != 2 {
		t.Fatalf("report = %+v, want midstream damage in both copies reported", rep)
	}
}

func TestCheckDirHealth(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	if err := CheckDirHealth(Disk, dir); err != nil {
		t.Fatalf("healthy dir reported unhealthy: %v", err)
	}
	corruptByte(t, dir, -1, slotMirror(0))
	if err := CheckDirHealth(Disk, dir); err == nil {
		t.Fatal("out-of-sync mirror not reported")
	}
}

func TestScrubberHealthAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	corruptByte(t, dir, -1, slotMirror(1))

	sc := NewScrubber(Target{Name: "state", Dir: dir})
	now := time.Unix(1000, 0)
	sc.now = func() time.Time { return now }
	sc.Interval = time.Minute
	reg := telemetry.NewRegistry()
	sc.AttachTelemetry(reg)

	if err := sc.healthy(); err == nil {
		t.Fatal("healthy before any pass")
	}
	if _, err := sc.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if err := sc.healthy(); err != nil {
		t.Fatalf("unhealthy after repairing pass: %v", err)
	}
	tot := sc.Totals()
	if tot.Detected != 1 || tot.Repaired != 1 {
		t.Errorf("totals = %+v, want the slot-b mirror repair counted", tot)
	}

	// Stale pass: age past the threshold must degrade /healthz.
	now = now.Add(time.Hour)
	if err := sc.healthy(); err == nil {
		t.Fatal("stale scrub age not reported")
	}
}
