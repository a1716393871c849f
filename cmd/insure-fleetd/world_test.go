package main

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"insure/internal/journal"
)

// TestSnapshotLayoutGolden pins the bytes of the daemon's day-boundary
// snapshot: one day of the resume-drill campaign writes a snapshot equal
// to the committed testdata, and a world resumed from it writes the same
// snapshot again byte for byte.
func TestSnapshotLayoutGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetdFixture(907, dir).worldConfig
	cfg.Days = 1
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	img := snapshotBytes(t, dir)
	matchGolden(t, "snapshot.golden", img)

	resumed, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.resumed {
		t.Fatal("world did not resume from its snapshot")
	}
	if err := resumed.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := resumed.close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, dir), img) {
		t.Error("resumed world does not re-encode its snapshot byte for byte")
	}
}

// snapshotBytes loads the newest snapshot image under a state dir.
func snapshotBytes(t *testing.T, dir string) []byte {
	t.Helper()
	res, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil {
		t.Fatal("no snapshot written")
	}
	return res.Snapshot
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
