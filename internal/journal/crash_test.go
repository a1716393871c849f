package journal

// Property test for snapshot crash-atomicity: Snapshot is killed at every
// byte offset of its write sequence — and at every rename, and with every
// suffix of its renames undone as a lost directory fsync would — and boot
// must always recover either the old snapshot (with the journal records
// after it intact) or the new one, never a corrupt mix and never an
// error.

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// crashFS wraps Disk with a byte budget. Once the budget is spent the
// "process" is dead: writes persist only a prefix, and every later write,
// sync, rename, and remove fails. Renames are recorded so a test can roll
// back a suffix of them, simulating a crash before the directory fsync
// made them durable.
type crashFS struct {
	FS
	remaining    int64
	unlimited    bool
	failAtRename int // 1-based; 0 disables
	dead         bool
	renames      [][2]string
}

var errCrashed = errors.New("crashfs: process died")

func (c *crashFS) spend(n int) bool {
	if c.unlimited {
		return true
	}
	if c.remaining >= int64(n) {
		c.remaining -= int64(n)
		return true
	}
	c.dead = true
	return false
}

type crashFile struct {
	File
	fs *crashFS
}

func (c *crashFS) OpenFile(name string, flag int) (File, error) {
	if c.dead {
		return nil, errCrashed
	}
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c}, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	if f.fs.dead {
		return 0, errCrashed
	}
	if f.fs.spend(len(p)) {
		return f.File.Write(p)
	}
	// Torn write: persist what the budget allowed, then die.
	keep := f.fs.remaining
	f.fs.remaining = 0
	if keep > 0 {
		if _, err := f.File.Write(p[:keep]); err != nil {
			return 0, err
		}
	}
	return int(keep), errCrashed
}

func (f *crashFile) Sync() error {
	if f.fs.dead {
		return errCrashed
	}
	return f.File.Sync()
}

func (c *crashFS) Rename(oldname, newname string) error {
	if c.dead {
		return errCrashed
	}
	c.renames = append(c.renames, [2]string{oldname, newname})
	if c.failAtRename > 0 && len(c.renames) == c.failAtRename {
		c.dead = true
		return errCrashed
	}
	if err := c.FS.Rename(oldname, newname); err != nil {
		return err
	}
	return nil
}

func (c *crashFS) Remove(name string) error {
	if c.dead {
		return errCrashed
	}
	return c.FS.Remove(name)
}

func (c *crashFS) SyncDir(dir string) error {
	if c.dead {
		return errCrashed
	}
	return c.FS.SyncDir(dir)
}

// rollbackRenames undoes the last k performed renames, newest first — the
// on-disk picture when the directory entries after some point never made
// it to the platter.
func (c *crashFS) rollbackRenames(k int) error {
	done := c.renames
	if c.failAtRename > 0 && len(done) >= c.failAtRename {
		done = done[:c.failAtRename-1] // the failing rename never happened
	}
	for i := 0; i < k && len(done) > 0; i++ {
		r := done[len(done)-1]
		done = done[:len(done)-1]
		if err := os.Rename(r[1], r[0]); err != nil {
			return err
		}
	}
	return nil
}

// seedStore builds the pre-crash state: an old snapshot generation plus a
// committed journal record after it.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("old-snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkRecovered asserts the fundamental invariant after any kill: boot
// succeeds and lands on the old or the new snapshot, never on garbage,
// and the old generation still replays the record committed after it.
func checkRecovered(t *testing.T, dir, label string) {
	t.Helper()
	res, err := Load(dir)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	switch string(res.Snapshot) {
	case "new-snapshot":
		// New generation landed; everything before it is superseded.
	case "old-snapshot":
		// Old generation: the post-snapshot record must have survived.
		found := false
		for _, e := range res.Entries {
			if string(e) == "r2" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: recovered old generation but lost committed record r2 (entries=%q)", label, res.Entries)
		}
	default:
		t.Fatalf("%s: recovered snapshot = %q, want old or new", label, res.Snapshot)
	}

	// And the survivor must reopen and accept appends.
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", label, err)
	}
	if _, err := s.Append([]byte("post-recovery")); err != nil {
		t.Fatalf("%s: append after recovery failed: %v", label, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("%s: close after recovery failed: %v", label, err)
	}
}

// snapshotAttempt runs the doomed Snapshot through fsys and returns the
// fs for post-mortem inspection.
func snapshotAttempt(t *testing.T, dir string, fsys *crashFS) {
	t.Helper()
	s, err := OpenFS(fsys, dir)
	if err != nil {
		// Opening through a dead-on-arrival fs cannot happen here: the
		// budget is spent inside Snapshot only.
		t.Fatal(err)
	}
	_ = s.Snapshot([]byte("new-snapshot")) // expected to fail mid-way
	_ = s.Close()
}

func TestSnapshotKilledAtEveryByteOffset(t *testing.T) {
	// Measure the full write sequence once.
	probeDir := t.TempDir()
	seedStore(t, probeDir)
	probe := &crashFS{FS: Disk, unlimited: true}
	snapshotAttempt(t, probeDir, probe)
	total := int64(0)
	{
		clean := &countingFS{FS: Disk}
		dir := t.TempDir()
		seedStore(t, dir)
		snapshotAttempt(t, dir, &crashFS{FS: clean, unlimited: true})
		total = clean.written
	}
	if total == 0 {
		t.Fatal("snapshot wrote zero bytes; probe broken")
	}

	for b := int64(0); b <= total; b++ {
		dir := t.TempDir()
		seedStore(t, dir)
		fsys := &crashFS{FS: Disk, remaining: b}
		snapshotAttempt(t, dir, fsys)
		checkRecovered(t, dir, fmt.Sprintf("torn@%d/%d", b, total))
	}
}

func TestSnapshotKilledAtEveryRename(t *testing.T) {
	// Count renames in a clean run.
	probe := &crashFS{FS: Disk, unlimited: true}
	dir0 := t.TempDir()
	seedStore(t, dir0)
	snapshotAttempt(t, dir0, probe)
	renames := len(probe.renames)
	if renames == 0 {
		t.Fatal("snapshot performed no renames; probe broken")
	}

	for n := 1; n <= renames; n++ {
		dir := t.TempDir()
		seedStore(t, dir)
		fsys := &crashFS{FS: Disk, unlimited: true, failAtRename: n}
		snapshotAttempt(t, dir, fsys)
		checkRecovered(t, dir, fmt.Sprintf("lost-rename@%d/%d", n, renames))
	}
}

func TestSnapshotSurvivesLostDirFsync(t *testing.T) {
	probe := &crashFS{FS: Disk, unlimited: true}
	dir0 := t.TempDir()
	seedStore(t, dir0)
	snapshotAttempt(t, dir0, probe)
	renames := len(probe.renames)

	// Undo every suffix of the rename sequence: the crash happened after
	// the renames were issued but before the directory fsync made the
	// last k of them durable.
	for k := 1; k <= renames; k++ {
		dir := t.TempDir()
		seedStore(t, dir)
		fsys := &crashFS{FS: Disk, unlimited: true}
		snapshotAttempt(t, dir, fsys)
		if err := fsys.rollbackRenames(k); err != nil {
			t.Fatalf("rollback %d: %v", k, err)
		}
		checkRecovered(t, dir, fmt.Sprintf("lost-dirsync@%d/%d", k, renames))
	}
}

// countingFS tallies bytes written through it.
type countingFS struct {
	FS
	written int64
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int) (File, error) {
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}
