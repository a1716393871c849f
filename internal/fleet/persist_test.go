package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/workload"
)

// TestCoordinatorLayoutGolden pins the bytes of the coordinator's control
// image: a three-site coordinator with a seeded detector view and control
// cursors encodes to the committed testdata, and the image decodes into a
// fresh coordinator that re-encodes byte for byte.
func TestCoordinatorLayoutGolden(t *testing.T) {
	c, err := New(Config{}, stubSites(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	c.day, c.heals = 2, 1
	for i := range c.sites {
		st := &c.sites[i]
		st.dead = i == 1
		st.declared = i == 1
		st.suspected = i != 0
		st.missedBeats = rng.Intn(100)
		st.evacuate = i == 2
		st.soc = rng.Float64()
		st.solarW = 1000 * rng.Float64()
		st.mode = core.OpMode(rng.Intn(5))
		st.pendingGB = 100 * rng.Float64()
		st.lastProcessed = 500 * rng.Float64()
		st.lostPendingGB = 10 * rng.Float64()
	}

	var e journal.Encoder
	c.AppendState(&e)
	matchGolden(t, "coordinator.golden", e.Bytes())
	fresh, err := New(Config{}, stubSites(3))
	if err != nil {
		t.Fatal(err)
	}
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.AppendState(&e2)
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded coordinator does not re-encode byte for byte")
	}
}

// TestRecordLayoutGolden pins the bytes of every migration-record kind:
// the replay fixture's records, manifests included, encode to the
// committed testdata, and each decodes into a record that re-encodes byte
// for byte.
func TestRecordLayoutGolden(t *testing.T) {
	records, _ := wanLogFixture(t, t.TempDir())
	var e journal.Encoder
	encode := func(r Record) []byte { // as migLog.append frames it
		e.Reset()
		e.U8(recordVersion)
		r.walk(journal.Encoding(&e))
		return append([]byte(nil), e.Bytes()...)
	}
	var all, again []byte
	for _, r := range records {
		img := encode(r)
		all = append(all, img...)
		got, err := decodeRecord(img)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, encode(got)...)
	}
	matchGolden(t, "records.golden", all)
	if !bytes.Equal(again, all) {
		t.Error("decoded records do not re-encode byte for byte")
	}
}

// TestWalkRejectsOversizedCount: a length prefix read from disk must not
// size an allocation. Batch-queue, batch-sink and migration-record images
// cut off right after a count claiming 200,000 entries fail to decode,
// and the decode allocates no more than its setup does.
func TestWalkRejectsOversizedCount(t *testing.T) {
	const claimed = 200_000
	// cut keeps img's first n bytes, whose last 8 are a count, and makes
	// the count claim 200,000 entries.
	cut := func(img []byte, n int) []byte {
		b := append([]byte(nil), img[:n]...)
		binary.LittleEndian.PutUint64(b[n-8:], claimed)
		return b
	}
	var e journal.Encoder
	workload.NewBatchQueue(workload.Seismic()).Walk(journal.Encoding(&e))
	queue := cut(e.Bytes(), 33)
	e.Reset()
	sim.NewSeismicSink().Walk(journal.Encoding(&e))
	sink := cut(e.Bytes(), 25)
	e.Reset()
	e.U8(recordVersion)
	(&Record{Kind: RecXferStart}).walk(journal.Encoding(&e))
	record := cut(e.Bytes(), len(e.Bytes()))

	for _, tc := range []struct {
		name   string
		img    []byte
		decode func([]byte) error
	}{
		{"batch queue", queue, func(b []byte) error {
			d := journal.NewDecoder(b)
			workload.NewBatchQueue(workload.Seismic()).Walk(journal.Decoding(d))
			return d.Err()
		}},
		{"batch sink", sink, func(b []byte) error {
			d := journal.NewDecoder(b)
			sim.NewSeismicSink().Walk(journal.Decoding(d))
			return d.Err()
		}},
		{"migration record", record, func(b []byte) error {
			_, err := decodeRecord(b)
			return err
		}},
	} {
		var err error
		allocs := testing.AllocsPerRun(3, func() { err = tc.decode(tc.img) })
		if err == nil {
			t.Errorf("%s: decoded a count of %d entries from a %d-byte image", tc.name, claimed, len(tc.img))
		}
		if allocs > 24 {
			t.Errorf("%s: %.0f allocations before failing, want two dozen at most", tc.name, allocs)
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
