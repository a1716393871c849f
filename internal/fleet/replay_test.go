package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/sim"
)

// stubManager is a do-nothing manager for tests that never tick a plant.
type stubManager struct{}

func (stubManager) Name() string                           { return "stub" }
func (stubManager) Period() time.Duration                  { return time.Minute }
func (stubManager) Control(_ *sim.System, _ time.Duration) {}

// wanLogFixture appends a migration-log sequence exercising every record
// kind, returning the records with their journal sequence numbers. The
// shape: transfer 1 moves two jobs with drops and a retransmission,
// transfer 2 ships two checkpoint images and re-routes mid-stream, and
// transfer 3 aborts with its source site.
func wanLogFixture(t *testing.T, dir string) ([]Record, []uint64) {
	t.Helper()
	log, existing, _, err := openLog(journal.Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(existing) != 0 {
		t.Fatalf("fixture dir not empty: %d records", len(existing))
	}
	manifest := []JobRef{
		{ID: 1<<32 | 1, Size: 2, Remaining: 1.5, Arrived: time.Hour, Origin: 0},
		{ID: 1<<32 | 2, Size: 1.5, Remaining: 1.5, Arrived: 2 * time.Hour, Origin: 0},
	}
	records := []Record{
		{Day: 0, At: 8 * time.Hour, Kind: RecXferStart, From: 0, To: 1,
			Jobs: 2, GB: 3, Xfer: 1, Manifest: manifest},
		{Day: 0, At: 8*time.Hour + 5*time.Minute, Kind: RecXferProgress, From: 0, To: 1,
			Xfer: 1, Offset: 2e9, Attempted: 2.5e9, Drops: 1, Corrupts: 1},
		{Day: 0, At: 9 * time.Hour, Kind: RecXferStart, From: 0, To: 1,
			GB: 8, Images: 2, Xfer: 2},
		{Day: 0, At: 9*time.Hour + 5*time.Minute, Kind: RecXferProgress, From: 0, To: 1,
			Xfer: 2, Offset: 1e9, Attempted: 1e9},
		{Day: 0, At: 9*time.Hour + 30*time.Minute, Kind: RecXferReroute, From: 0, To: 2,
			GB: 1, Xfer: 2, Offset: 1e9},
		{Day: 0, At: 10 * time.Hour, Kind: RecXferDone, From: 0, To: 1,
			Jobs: 2, GB: 3, Xfer: 1},
		{Day: 0, At: 10*time.Hour + 5*time.Minute, Kind: RecXferProgress, From: 0, To: 2,
			Xfer: 2, Offset: 8e9, Attempted: 8e9},
		{Day: 0, At: 10*time.Hour + 10*time.Minute, Kind: RecXferDone, From: 0, To: 2,
			GB: 8, Images: 2, Xfer: 2},
		{Day: 0, At: 11 * time.Hour, Kind: RecXferStart, From: 1, To: 2,
			Jobs: 1, GB: 1, Xfer: 3,
			Manifest: []JobRef{{ID: 2<<32 | 1, Size: 1, Remaining: 1, Origin: 1}}},
		{Day: 0, At: 12 * time.Hour, Kind: RecSiteLoss, From: 1, To: -1},
		{Day: 0, At: 12*time.Hour + 5*time.Minute, Kind: RecXferAbort, From: 1, To: 2,
			Jobs: 1, GB: 1, Xfer: 3},
	}
	seqs := make([]uint64, len(records))
	for i, r := range records {
		seq, err := log.append(r)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	if err := log.close(); err != nil {
		t.Fatal(err)
	}
	return records, seqs
}

func stubSites(n int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site{Sink: &stubSink{}, Manager: stubManager{}}
	}
	return sites
}

// TestMigrationLogReplayIdempotent is the replay property test: applying the
// same log twice — every record re-replayed with its original sequence
// number over an already-recovered coordinator — must change nothing, and
// two independent recoveries from the same log must agree exactly.
func TestMigrationLogReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	records, seqs := wanLogFixture(t, dir)

	c, err := New(Config{LogDir: dir}, stubSites(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Recovered() {
		t.Fatal("coordinator did not replay the fixture log")
	}
	tot := c.Totals()

	// Sanity-pin the fixture accounting before testing idempotence.
	if tot.JobsMoved != 2+1 || tot.Migrations != 2 {
		t.Fatalf("fixture jobs accounting off: %+v", tot)
	}
	if tot.ImagesShipped != 2 || tot.RestoredVMs != 2 {
		t.Fatalf("fixture checkpoint accounting off: %+v", tot)
	}
	if tot.Reroutes != 1 || tot.ChunkDrops != 1 || tot.ChunkCorrupts != 1 || tot.SitesLost != 1 {
		t.Fatalf("fixture WAN accounting off: %+v", tot)
	}
	if tot.JobsDoubleRun != 0 || tot.SplitBrain != 0 {
		t.Fatalf("guard counters nonzero on a clean log: %+v", tot)
	}
	if tot.RetransmitGB <= 0 {
		t.Fatalf("drops and a reroute must show as retransmitted bytes: %+v", tot)
	}
	rep := c.Report()
	if rep.Sites[1].JobsIn != 2 || rep.Sites[2].ImagesIn != 2 {
		t.Fatalf("per-site accounting off: %+v", rep.Sites)
	}
	if rep.Sites[1].LostPendingGB != 1 {
		t.Fatalf("aborted transfer's GB not charged to the dead source: %+v", rep.Sites[1])
	}

	// Replay the whole log again, in order, with the original sequence
	// numbers: the seq gate must make every record a no-op.
	for i, r := range records {
		c.replay(r, seqs[i])
	}
	if got := c.Totals(); !reflect.DeepEqual(got, tot) {
		t.Errorf("double replay changed totals:\n got: %+v\nwant: %+v", got, tot)
	}
	if got := c.Report(); !reflect.DeepEqual(got, rep) {
		t.Errorf("double replay changed the report:\n got: %+v\nwant: %+v", got, rep)
	}

	// A second recovery from the same directory must land on the identical
	// accounting (close the first handle before reopening the store).
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{LogDir: dir}, stubSites(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Totals(); !reflect.DeepEqual(got, tot) {
		t.Errorf("second recovery diverged:\n got: %+v\nwant: %+v", got, tot)
	}
}

// TestMigrationLogReplayTornTail appends a torn half-record to the journal
// file: the journal layer truncates it on load, and the coordinator's
// accounting must be exactly what the intact prefix says — a crash mid-append
// never invents or loses a whole record.
func TestMigrationLogReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	wanLogFixture(t, dir)

	clean, err := New(Config{LogDir: dir}, stubSites(3))
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Totals()
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible frame header promising far more bytes than follow.
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	torn, err := New(Config{LogDir: dir}, stubSites(3))
	if err != nil {
		t.Fatalf("torn tail must truncate, not fail recovery: %v", err)
	}
	defer torn.Close()
	if got := torn.Totals(); !reflect.DeepEqual(got, want) {
		t.Errorf("torn-tail recovery diverged:\n got: %+v\nwant: %+v", got, want)
	}
}
