package workload

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

// seededQueue is a batch queue with completed, partly processed and
// migrated-in jobs under a namespaced ID cursor.
func seededQueue() *BatchQueue {
	q := NewBatchQueue(Seismic())
	q.SetIDBase(3 << 32)
	q.Add(7*time.Hour, 40)
	q.Add(8*time.Hour, 25)
	for now := 7 * time.Hour; now < 10*time.Hour; now += time.Minute {
		q.Tick(now, 0.2, 4)
	}
	q.Add(13*time.Hour, SeismicJobGB)
	q.Inject(&Job{ID: 1<<32 | 9, Size: 12, Remaining: 4.5, Arrived: 11 * time.Hour, Migrated: true, Origin: 1})
	for now := 13 * time.Hour; now < 13*time.Hour+20*time.Minute; now += time.Minute {
		q.Tick(now, 0.2, 4)
	}
	return q
}

// TestStateLayoutGolden pins the bytes of both workload layouts: a
// migrated job and a seeded queue encode to the committed testdata, and
// each image decodes into a fresh value that re-encodes byte for byte.
func TestStateLayoutGolden(t *testing.T) {
	q := seededQueue()
	if len(q.Pending()) == 0 || len(q.Completed()) == 0 {
		t.Fatalf("seeded queue has %d pending and %d completed jobs, want both", len(q.Pending()), len(q.Completed()))
	}

	job := &Job{ID: 1<<32 | 9, Size: 12, Remaining: 4.5, Arrived: 11 * time.Hour, Done: 15 * time.Hour, Migrated: true, Origin: 1}
	var je journal.Encoder
	job.Walk(journal.Encoding(&je))
	matchGolden(t, "job.golden", je.Bytes())
	var got Job
	got.Walk(journal.Decoding(journal.NewDecoder(je.Bytes())))
	var je2 journal.Encoder
	got.Walk(journal.Encoding(&je2))
	if !bytes.Equal(je2.Bytes(), je.Bytes()) {
		t.Error("decoded job does not re-encode byte for byte")
	}

	var e journal.Encoder
	q.Walk(journal.Encoding(&e))
	matchGolden(t, "batch_queue.golden", e.Bytes())
	fresh := NewBatchQueue(Seismic())
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.Walk(journal.Encoding(&e2))
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded batch queue does not re-encode byte for byte")
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
