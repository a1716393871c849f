package journal

// The scrubber is the at-rest half of storage integrity: the journal's
// CRCs catch damage when a record is *read*, but a snapshot generation or
// sealed segment can sit untouched for days while its bits rot. ScrubDir
// CRC-walks every immutable file in a store directory and repairs a
// damaged copy from its intact mirror before the second copy can decay
// too; Scrubber runs that sweep periodically across the daemon's state
// directories and exports the insure_storage_scrub_* counters.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"insure/internal/telemetry"
)

// ScrubReport is the outcome of one sweep over one store directory.
type ScrubReport struct {
	Dir string
	// Checked counts file copies CRC-walked.
	Checked int
	// Detected counts copies that failed verification or had fallen out
	// of sync with their mirror.
	Detected int
	// Repaired counts copies rewritten from an intact mirror (or, for a
	// segment pair damaged on both sides, recovered from the union of the
	// two damaged copies).
	Repaired int
	// Unrepairable counts generations or segments with no intact copy and
	// no complete union — data is genuinely gone.
	Unrepairable int
	// Midstream counts corrupt regions observed inside the *active*
	// journal pair. The scrubber never rewrites the active pair (the
	// store owns those handles); Open normalizes it at next boot, and the
	// mirror masks the gap until then.
	Midstream int
}

// add folds o into r.
func (r *ScrubReport) add(o ScrubReport) {
	r.Checked += o.Checked
	r.Detected += o.Detected
	r.Repaired += o.Repaired
	r.Unrepairable += o.Unrepairable
	r.Midstream += o.Midstream
}

// ScrubDir CRC-verifies every snapshot generation, sealed segment, and
// checkpoint image in dir and repairs damaged copies from their mirrors.
// It is safe to run against a directory whose Store is open as long as
// the caller serializes with the store's owner (the active journal pair
// is inspected but never rewritten).
func ScrubDir(fsys FS, dir string) (ScrubReport, error) {
	rep := ScrubReport{Dir: dir}
	if _, err := fsys.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}

	// Snapshot generations: mirrored A/B slots.
	for slot := 0; slot < 2; slot++ {
		scrubBlobPair(fsys, dir, slotName(slot), slotMirror(slot), &rep)
	}

	// Checkpoint images (fleet): same framing, same mirrored-pair repair.
	// Subdirectories (the image store's per-site layout) are swept
	// recursively so one target covers the whole tree.
	names, err := fsys.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, err
	}
	for _, name := range names {
		if filepath.Ext(name) == ".ckpt" {
			scrubBlobPair(fsys, dir, name, name[:len(name)-len(".ckpt")]+".ckmr", &rep)
			continue
		}
		if fi, serr := fsys.Stat(filepath.Join(dir, name)); serr == nil && fi.IsDir() {
			sub, serr := ScrubDir(fsys, filepath.Join(dir, name))
			if serr != nil {
				return rep, serr
			}
			rep.add(sub)
		}
	}

	// Sealed segments: immutable record runs, contiguous up to the seq in
	// the file name, mirrored pairwise.
	for _, name := range names {
		seq, ok := segSeq(name)
		if !ok {
			continue
		}
		scrubSegment(fsys, dir, seq, &rep)
	}

	// Active journal pair: verify and report only. Repairing under the
	// owner's open handles would append into an unlinked inode, so the
	// union repair is left to OpenFS at the next boot.
	pScan := scanJournalFile(fsys, filepath.Join(dir, journalName))
	mScan := scanJournalFile(fsys, filepath.Join(dir, journalMirror))
	if !pScan.missing {
		rep.Checked++
	}
	if !mScan.missing {
		rep.Checked++
	}
	rep.Midstream += pScan.midstream + mScan.midstream
	if pScan.midstream > 0 {
		rep.Detected++
	}
	if mScan.midstream > 0 {
		rep.Detected++
	}
	return rep, nil
}

// scrubBlobPair verifies one mirrored snapshot-framed pair and repairs
// the damaged or stale side from the intact one.
func scrubBlobPair(fsys FS, dir, primary, mirror string, rep *ScrubReport) {
	pPath := filepath.Join(dir, primary)
	mPath := filepath.Join(dir, mirror)
	pRaw, pErr := fsys.ReadFile(pPath)
	mRaw, mErr := fsys.ReadFile(mPath)
	if pErr != nil && mErr != nil {
		return // slot empty
	}
	if pErr == nil {
		rep.Checked++
	}
	if mErr == nil {
		rep.Checked++
	}
	_, pSeq, pOK := decodeOK(pRaw, pErr)
	_, mSeq, mOK := decodeOK(mRaw, mErr)
	switch {
	case pOK && mOK && bytes.Equal(pRaw, mRaw):
	case pOK && mOK:
		// Both intact but different generations: a crash landed between
		// the two copy writes. Sync the stale side to the newer one.
		rep.Detected++
		src, dst := pRaw, mirror
		if mSeq > pSeq {
			src, dst = mRaw, primary
		}
		if writeFileAtomic(fsys, dir, dst, src) == nil && fsys.SyncDir(dir) == nil {
			rep.Repaired++
		}
	case pOK:
		rep.Detected++
		if writeFileAtomic(fsys, dir, mirror, pRaw) == nil && fsys.SyncDir(dir) == nil {
			rep.Repaired++
		}
	case mOK:
		rep.Detected++
		if writeFileAtomic(fsys, dir, primary, mRaw) == nil && fsys.SyncDir(dir) == nil {
			rep.Repaired++
		}
	default:
		rep.Detected += 2
		rep.Unrepairable++
	}
}

// decodeOK unwraps a blob read, tolerating a missing file.
func decodeOK(raw []byte, readErr error) (payload []byte, seq uint64, ok bool) {
	if readErr != nil {
		return nil, 0, false
	}
	payload, seq, err := DecodeBlob(raw)
	return payload, seq, err == nil
}

// scrubSegment verifies one sealed segment pair. A sealed segment must be
// a clean contiguous record run ending at the seq in its name; a damaged
// copy is rebuilt from the intact one, and a pair damaged on both sides
// is rebuilt from the union of the two when the union is still complete.
func scrubSegment(fsys FS, dir string, seq uint64, rep *ScrubReport) {
	pName, mName := segName(seq)
	pScan := scanJournalFile(fsys, filepath.Join(dir, pName))
	mScan := scanJournalFile(fsys, filepath.Join(dir, mName))
	if !pScan.missing {
		rep.Checked++
	}
	if !mScan.missing {
		rep.Checked++
	}
	pOK := segmentIntact(pScan, seq)
	mOK := segmentIntact(mScan, seq)
	switch {
	case pOK && mOK:
		return
	case pOK:
		rep.Detected++
		if copySegment(fsys, dir, pName, mName) {
			rep.Repaired++
		}
	case mOK:
		rep.Detected++
		if copySegment(fsys, dir, mName, pName) {
			rep.Repaired++
		}
	default:
		rep.Detected += 2
		// Union repair: the two copies may have lost *different* records.
		union := unionRecs(pScan, mScan)
		if segmentComplete(union, seq) {
			canon := encodeRecords(union)
			if writeFileAtomic(fsys, dir, pName, canon) == nil &&
				writeFileAtomic(fsys, dir, mName, canon) == nil &&
				fsys.SyncDir(dir) == nil {
				rep.Repaired += 2
				return
			}
		}
		rep.Unrepairable++
	}
}

// segmentIntact reports whether one segment copy is a clean record run
// ending exactly at the sealed seq.
func segmentIntact(sc fileScan, seq uint64) bool {
	if sc.missing || sc.torn || sc.midstream > 0 || len(sc.recs) == 0 {
		return false
	}
	return segmentComplete(sc.recs, seq)
}

// segmentComplete reports whether recs form a contiguous seq run ending
// at seq — the shape every sealed segment has by construction, which is
// what lets the scrubber prove a union repair recovered everything.
func segmentComplete(recs []rec, seq uint64) bool {
	if len(recs) == 0 || recs[len(recs)-1].seq != seq {
		return false
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].seq != recs[i-1].seq+1 {
			return false
		}
	}
	return true
}

// unionRecs merges two damaged copies' surviving records by seq.
func unionRecs(a, b fileScan) []rec {
	out := append([]rec(nil), a.recs...)
	have := make(map[uint64]bool, len(a.recs))
	for _, r := range a.recs {
		have[r.seq] = true
	}
	for _, r := range b.recs {
		if !have[r.seq] {
			out = append(out, r)
		}
	}
	sortRecs(out)
	return out
}

func sortRecs(recs []rec) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].seq < recs[j-1].seq; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// copySegment clones an intact segment copy over its damaged twin.
func copySegment(fsys FS, dir, from, to string) bool {
	raw, err := fsys.ReadFile(filepath.Join(dir, from))
	if err != nil {
		return false
	}
	return writeFileAtomic(fsys, dir, to, raw) == nil && fsys.SyncDir(dir) == nil
}

// CheckDirHealth is the /healthz probe for one store directory: the
// directory must accept a durable write and the mirrored pairs must be in
// sync. The caller serializes with the store's owner.
func CheckDirHealth(fsys FS, dir string) error {
	// Writable: a full write-sync-remove round trip, so ENOSPC and a
	// read-only remount both surface here before the next commit does.
	probe := filepath.Join(dir, ".probe")
	f, err := fsys.OpenFile(probe, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("state dir not writable: %w", err)
	}
	if _, err := f.Write([]byte("insure\n")); err != nil {
		return errors.Join(fmt.Errorf("state dir not writable: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("state dir fsync failed: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("state dir close failed: %w", err)
	}
	if err := fsys.Remove(probe); err != nil {
		return fmt.Errorf("state dir not writable: %w", err)
	}

	// Mirrors in sync: every present snapshot slot and the active journal
	// pair must agree copy-for-copy.
	for slot := 0; slot < 2; slot++ {
		pRaw, pErr := fsys.ReadFile(filepath.Join(dir, slotName(slot)))
		mRaw, mErr := fsys.ReadFile(filepath.Join(dir, slotMirror(slot)))
		if pErr != nil && mErr != nil {
			continue
		}
		if pErr != nil || mErr != nil || !bytes.Equal(pRaw, mRaw) {
			return fmt.Errorf("snapshot slot %s out of sync with its mirror", slotName(slot))
		}
	}
	pRaw, pErr := fsys.ReadFile(filepath.Join(dir, journalName))
	mRaw, mErr := fsys.ReadFile(filepath.Join(dir, journalMirror))
	if pErr == nil && mErr == nil && !bytes.Equal(pRaw, mRaw) {
		return errors.New("active journal out of sync with its mirror")
	}
	return nil
}

// Target is one store directory a Scrubber sweeps.
type Target struct {
	// Name labels the target in reports.
	Name string
	// Dir is the store directory.
	Dir string
	// FS is the filesystem to sweep through; nil means Disk.
	FS FS
	// Lock, when set, is held for the duration of each sweep of this
	// target, serializing the scrubber with the store's owner.
	Lock sync.Locker
}

func (t Target) fs() FS {
	if t.FS != nil {
		return t.FS
	}
	return Disk
}

// Scrubber periodically sweeps a set of store directories, repairing
// damaged mirror copies and exporting scrub telemetry. RunOnce is
// deterministic given the on-disk state, which is what lets the chaos
// campaigns schedule sweeps at planned times.
type Scrubber struct {
	// Interval paces Run; zero defaults to one minute.
	Interval time.Duration

	targets []Target
	now     func() time.Time

	mu       sync.Mutex
	passes   int
	lastPass time.Time
	lastErr  error
	totals   ScrubReport

	telPasses       *telemetry.Counter
	telChecked      *telemetry.Counter
	telDetected     *telemetry.Counter
	telRepaired     *telemetry.Counter
	telUnrepairable *telemetry.Counter
	telMidstream    *telemetry.Counter
}

// NewScrubber builds a scrubber over the given targets.
func NewScrubber(targets ...Target) *Scrubber {
	return &Scrubber{targets: targets, now: time.Now}
}

// AttachTelemetry registers the scrub series on reg and a "storage"
// health check covering every target: state dir writable, mirrors in
// sync, and the last sweep fresh.
func (s *Scrubber) AttachTelemetry(reg *telemetry.Registry) {
	s.telPasses = reg.Counter("insure_storage_scrub_passes_total", "Completed scrub sweeps across all targets.")
	s.telChecked = reg.Counter("insure_storage_scrub_files_total", "File copies CRC-verified by scrub sweeps.")
	s.telDetected = reg.Counter("insure_storage_corruption_detected_total", "File copies that failed CRC verification or mirror sync.")
	s.telRepaired = reg.Counter("insure_storage_corruption_repaired_total", "Damaged file copies rewritten from an intact mirror.")
	s.telUnrepairable = reg.Counter("insure_storage_scrub_unrepairable_total", "Generations or segments with no intact copy left (must stay 0).")
	s.telMidstream = reg.Counter("insure_journal_midstream_corruption_total", "Mid-stream corrupt regions observed in active journals.")
	reg.AddHealthCheck("storage", s.healthy)
}

// RunOnce sweeps every target once and returns the per-target reports.
func (s *Scrubber) RunOnce() ([]ScrubReport, error) {
	reps := make([]ScrubReport, 0, len(s.targets))
	var firstErr error
	for _, t := range s.targets {
		if t.Lock != nil {
			t.Lock.Lock()
		}
		rep, err := ScrubDir(t.fs(), t.Dir)
		if t.Lock != nil {
			t.Lock.Unlock()
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("scrub %s: %w", t.Name, err)
		}
		reps = append(reps, rep)
	}

	s.mu.Lock()
	s.passes++
	s.lastPass = s.now()
	s.lastErr = firstErr
	for _, rep := range reps {
		s.totals.add(rep)
	}
	s.mu.Unlock()

	if s.telPasses != nil {
		s.telPasses.Add(1)
		for _, rep := range reps {
			s.telChecked.Add(int64(rep.Checked))
			s.telDetected.Add(int64(rep.Detected))
			s.telRepaired.Add(int64(rep.Repaired))
			s.telUnrepairable.Add(int64(rep.Unrepairable))
			s.telMidstream.Add(int64(rep.Midstream))
		}
	}
	return reps, firstErr
}

// interval is Interval with its one-minute default.
func (s *Scrubber) interval() time.Duration {
	if s.Interval <= 0 {
		return time.Minute
	}
	return s.Interval
}

// staleSweeps is the /healthz freshness threshold in sweep intervals: the
// storage check fails once the last sweep is older than this many.
const staleSweeps = 5

// Run sweeps on a ticker until ctx is done. The first sweep runs
// immediately so /healthz is meaningful from boot.
func (s *Scrubber) Run(ctx context.Context) {
	_, _ = s.RunOnce()
	tick := time.NewTicker(s.interval())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			_, _ = s.RunOnce()
		}
	}
}

// Totals returns the accumulated counts across all sweeps.
func (s *Scrubber) Totals() ScrubReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// healthy is the registered storage health check.
func (s *Scrubber) healthy() error {
	s.mu.Lock()
	passes, last, lastErr := s.passes, s.lastPass, s.lastErr
	s.mu.Unlock()
	if passes == 0 {
		return errors.New("no scrub pass completed yet")
	}
	if lastErr != nil {
		return lastErr
	}
	maxAge := staleSweeps * s.interval()
	if age := s.now().Sub(last); age > maxAge {
		return fmt.Errorf("last scrub pass %v ago (threshold %v)", age.Round(time.Second), maxAge)
	}
	for _, t := range s.targets {
		if t.Lock != nil {
			t.Lock.Lock()
		}
		err := CheckDirHealth(t.fs(), t.Dir)
		if t.Lock != nil {
			t.Lock.Unlock()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
	}
	return nil
}
