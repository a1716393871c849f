package fleet

import (
	"fmt"
	"math"
	"time"

	"insure/internal/journal"
)

// The migration log is the coordinator's durable state, built on the same
// append-only journal layer the per-site control planes use (PR 4): one
// CRC-framed record per migration event. The plants and sinks own the
// physical consequences; the log owns the accounting, so a replacement
// coordinator replays it and knows exactly what has been shipped where.
// Done records for transfers still in flight at a crash are simply absent —
// the log then shows a transfer as started but not yet landed, which is the
// truth.
//
// The transfer records (RecXfer*) are the chunked shipping engine's
// journal: a transfer's start carries its full job manifest (IDs, sizes,
// remaining work), every control pass that moved bytes appends the new
// contiguous offset plus the bytes *attempted* (retransmissions are billed
// too), and completion/reroute/abort close it out. Replaying Start→Progress→… records
// rebuilds the in-flight transfer table byte-for-byte, which is how a
// resumed coordinator picks a 4 GB image back up mid-stream instead of
// restarting it. Replay is idempotent: records are seq-gated (a record
// already applied is skipped) and job landings deduplicate by job ID, so
// replaying the same log twice — or a healed log over a live coordinator —
// changes nothing.

// RecordKind tags a migration-log record. The values are part of the
// encoded log and never change; 1-3 are retired and never reused.
type RecordKind uint8

const (
	// RecSiteLoss marks a site dying with its in-flight resources. The
	// failure detector writes it at lease expiry — when the coordinator
	// *declares* the site dead — not at the physical failure the
	// coordinator cannot observe.
	RecSiteLoss RecordKind = 4
	// RecXferStart opens a chunked transfer: jobs (with manifest) or
	// checkpoint images, GB total, assigned a transfer ID.
	RecXferStart RecordKind = 5
	// RecXferProgress advances a transfer: Offset is the new contiguous
	// delivered byte count, Attempted the bytes spent on the link this
	// pass (delivered + dropped + corrupted), Drops/Corrupts the per-pass
	// chunk failures.
	RecXferProgress RecordKind = 6
	// RecXferDone lands a transfer at its destination.
	RecXferDone RecordKind = 7
	// RecXferReroute retargets a transfer to a new donor after repeated
	// failure; delivered bytes at the old destination (Offset) are wasted
	// and the transfer restarts from byte zero.
	RecXferReroute RecordKind = 8
	// RecXferAbort cancels a transfer whose source site died mid-stream —
	// the unsent bytes died with the site.
	RecXferAbort RecordKind = 9
)

func (k RecordKind) String() string {
	switch k {
	case RecSiteLoss:
		return "site-loss"
	case RecXferStart:
		return "xfer-start"
	case RecXferProgress:
		return "xfer-progress"
	case RecXferDone:
		return "xfer-done"
	case RecXferReroute:
		return "xfer-reroute"
	case RecXferAbort:
		return "xfer-abort"
	default:
		return fmt.Sprintf("RecordKind(%d)", int(k))
	}
}

// JobRef is one job's entry in a transfer manifest: enough identity and
// progress state to rebuild the job at the destination (or re-route it)
// without the original pointer. Remaining rides the manifest because work
// done before migration travels inside the shipped VM checkpoint.
type JobRef struct {
	ID        uint64
	Size      float64 // GB
	Remaining float64 // GB
	Arrived   time.Duration
	Origin    int
}

// Record is one migration-log entry. The Xfer/Offset/Attempted/Manifest
// fields are zero for RecSiteLoss.
type Record struct {
	Day    int
	At     time.Duration
	Kind   RecordKind
	From   int // source site index (the dead site for RecSiteLoss)
	To     int // destination site index (-1 when not applicable)
	Jobs   int
	GB     float64
	Images int

	// Chunked-transfer fields.
	Xfer      uint64 // transfer ID
	Offset    int64  // contiguous delivered bytes (wasted bytes for reroute)
	Attempted int64  // bytes attempted this pass, for retry billing
	Drops     int    // chunk attempts lost in transit this pass
	Corrupts  int    // chunk attempts failing CRC this pass
	Manifest  []JobRef
}

// recordVersion is the codec version of encoded records.
const recordVersion = 2

// walk is the record's one persisted layout after its version byte,
// which decodeRecord checks first so a version mismatch reports as one.
func (r *Record) walk(c journal.Codec) {
	c.U8((*uint8)(&r.Kind))
	journal.Int(c, &r.Day)
	journal.I64(c, &r.At)
	journal.Int(c, &r.From)
	journal.Int(c, &r.To)
	journal.Int(c, &r.Jobs)
	journal.F64(c, &r.GB)
	journal.Int(c, &r.Images)
	c.U64(&r.Xfer)
	journal.I64(c, &r.Offset)
	journal.I64(c, &r.Attempted)
	journal.Int(c, &r.Drops)
	journal.Int(c, &r.Corrupts)
	journal.Slice(c, &r.Manifest, math.MaxInt, "fleet: %d manifest entries outside [0, %d]")
	for i := range r.Manifest {
		j := &r.Manifest[i]
		c.U64(&j.ID)
		journal.F64(c, &j.Size)
		journal.F64(c, &j.Remaining)
		journal.I64(c, &j.Arrived)
		journal.Int(c, &j.Origin)
	}
}

func decodeRecord(b []byte) (Record, error) {
	d := journal.NewDecoder(b)
	c := journal.Decoding(d)
	var version uint8
	if c.U8(&version); version != recordVersion {
		return Record{}, fmt.Errorf("fleet: migration record version %d, want %d", version, recordVersion)
	}
	var r Record
	r.walk(c)
	if err := d.Err(); err != nil {
		return Record{}, fmt.Errorf("fleet: corrupt migration record: %w", err)
	}
	return r, nil
}

// migLog is the journal-backed migration log.
type migLog struct {
	store *journal.Store
	enc   journal.Encoder
}

// openLog opens (or creates) the migration log in dir on fsys and returns
// every record already present with its journal sequence number — the
// replay set (seq-gating makes replay idempotent).
func openLog(fsys journal.FS, dir string) (*migLog, []Record, []uint64, error) {
	res, err := journal.LoadFS(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	records, err := decodeEntries(res)
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := journal.OpenFS(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	return &migLog{store: store}, records, res.EntrySeqs, nil
}

func (l *migLog) append(r Record) (uint64, error) {
	l.enc.Reset()
	l.enc.U8(recordVersion)
	r.walk(journal.Encoding(&l.enc))
	return l.store.Append(l.enc.Bytes())
}

func (l *migLog) close() error { return l.store.Close() }

// ReplayLog reads the migration log in dir without opening it for writing —
// the forensic view of what a (possibly dead) coordinator shipped.
func ReplayLog(dir string) ([]Record, error) {
	res, err := journal.Load(dir)
	if err != nil {
		return nil, err
	}
	return decodeEntries(res)
}

// decodeEntries decodes every record a load of the log returned, in order.
func decodeEntries(res *journal.LoadResult) ([]Record, error) {
	records := make([]Record, 0, len(res.Entries))
	for _, payload := range res.Entries {
		r, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
	return records, nil
}
