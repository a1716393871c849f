package sim

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/workload"
)

// TestBatchSinkLayoutGolden pins the bytes of the sink's image: a seismic
// sink past its first arrival, with two migrated jobs in flight, encodes
// to the committed testdata, and the image decodes into a fresh sink that
// re-encodes byte for byte.
func TestBatchSinkLayoutGolden(t *testing.T) {
	b := NewSeismicSink()
	b.SetIDBase(2 << 32)
	for now := 6 * time.Hour; now < 14*time.Hour; now += time.Minute {
		b.Tick(now, time.Minute, 0.5, 4)
	}
	b.Schedule(15*time.Hour, &workload.Job{ID: 1<<32 | 7, Size: 40, Remaining: 12.5, Arrived: 9 * time.Hour, Migrated: true, Origin: 1})
	b.Schedule(14*time.Hour+30*time.Minute, &workload.Job{ID: 3<<32 | 2, Size: 8, Remaining: 8, Arrived: 10 * time.Hour, Migrated: true, Origin: 2})
	if len(b.Queue.Completed()) == 0 {
		t.Fatal("seeded sink completed no job")
	}

	var e journal.Encoder
	b.AppendState(&e)
	matchGolden(t, "batch_sink.golden", e.Bytes())
	fresh := NewSeismicSink()
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.AppendState(&e2)
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded batch sink does not re-encode byte for byte")
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
