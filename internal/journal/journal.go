// Package journal is the durable-state layer of the control plane: an
// append-only, checksummed, fsync-on-commit write-ahead journal plus
// periodic atomic snapshots. The power manager commits its full state
// after every control pass; after a crash — controller panic, wedged
// loop, or a brownout that takes the coordination node down mid-relay
// transition — recovery replays snapshot + journal and resumes from the
// last committed pass.
//
// On-disk layout inside the state directory:
//
//	snap-a.bin, snap-b.bin   A/B snapshot generations: magic | version | seq | crc32 | len | payload
//	snap-a.mir, snap-b.mir   byte-for-byte mirror of each generation
//	journal.log              repeated records: len | seq | crc32 | payload
//	journal.mir              byte-for-byte mirror of the active journal
//	seg-<seq>.log/.mir       sealed journal segments, immutable once renamed
//
// All files use little-endian fixed-width framing (see codec.go). Every
// snapshot is written to a temporary file, fsynced, renamed over the
// *older* generation slot, and the directory is fsynced — at any instant
// the directory holds at least one intact generation. Each commit is
// appended to the journal and its mirror; on snapshot the journal pair is
// sealed (renamed) into an immutable segment pair that the scrubber can
// CRC-verify and repair copy-from-copy. Replay prefers the newest intact
// generation and falls back to the older one plus a longer replay through
// the sealed segments when the newest is damaged.
//
// The journal tolerates a torn tail: replay drops a trailing partial
// record, and Open rewrites the pair back to the union of valid records
// before appending. A record corrupted *mid*-file (bit rot, not a crash)
// is different: replay resynchronizes past the damage to the next valid
// record, recovers everything beyond it — masking the gap from the intact
// mirror copy when one exists — and reports the event as
// LoadResult.Midstream so operators can tell rot from a clean shutdown.
//
// A failed fsync poisons the store (fsyncgate semantics): after Sync
// returns an error the kernel may have dropped the dirty pages, so
// retrying cannot be trusted. Every later Append/Snapshot fails with
// ErrPoisoned and the owner must rebuild from the last good on-disk state.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	snapshotTemp  = "snapshot.tmp"
	journalName   = "journal.log"
	journalMirror = "journal.mir"
	segPrefix     = "seg-"

	snapshotMagic = 0x494e534a // "INSJ"
	storeVersion  = 1

	recordHeader = 4 + 8 + 4 // len | seq | crc32
	maxRecord    = 16 << 20  // sanity bound on a single payload
)

// slotName returns the primary file of snapshot generation slot 0 or 1.
func slotName(slot int) string {
	if slot == 0 {
		return "snap-a.bin"
	}
	return "snap-b.bin"
}

// slotMirror returns the mirror file of snapshot generation slot 0 or 1.
func slotMirror(slot int) string {
	if slot == 0 {
		return "snap-a.mir"
	}
	return "snap-b.mir"
}

// segName returns the sealed-segment pair for the given last record seq.
func segName(seq uint64) (primary, mirror string) {
	base := fmt.Sprintf("%s%016d", segPrefix, seq)
	return base + ".log", base + ".mir"
}

// segSeq parses the last-record seq out of a sealed segment's file name.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".log")
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// ErrCorruptSnapshot reports that snapshot files exist but no generation —
// neither slot, neither copy — passes its magic, version, length, and
// checksum. Unlike a torn journal tail this is not an expected crash
// artifact (renames are atomic and generations are mirrored), so Load
// surfaces it instead of silently starting from zero.
var ErrCorruptSnapshot = errors.New("journal: corrupt snapshot")

// ErrPoisoned reports an operation on a store that has already failed an
// fsync or write. After a failed fsync the kernel may have silently
// dropped the dirty pages, so the handle cannot be trusted to retry; the
// store goes read-only and the owner must rebuild from on-disk state.
var ErrPoisoned = errors.New("journal: store poisoned by earlier I/O failure")

// TailState classifies how the active journal ends.
type TailState uint8

const (
	// TailClean: the journal ends exactly on a record boundary — a clean
	// shutdown or a kill between commits.
	TailClean TailState = iota
	// TailTorn: trailing bytes after the last valid record do not parse —
	// the expected artifact of a power cut mid-append. The partial record
	// is dropped.
	TailTorn
)

func (t TailState) String() string {
	switch t {
	case TailClean:
		return "clean"
	case TailTorn:
		return "torn"
	default:
		return fmt.Sprintf("TailState(%d)", int(t))
	}
}

// LoadResult is everything recovery needs — the newest intact snapshot
// generation and the records committed after it — plus the replay's
// integrity verdict: whether the tail was clean or torn, whether damage
// was found mid-stream (rot, not a crash), and how much was masked or
// degraded along the way.
type LoadResult struct {
	Snapshot    []byte // nil if no snapshot exists
	SnapshotSeq uint64
	Entries     [][]byte // journal payloads with seq > SnapshotSeq
	EntrySeqs   []uint64
	LastSeq     uint64 // highest seq seen anywhere (0 if store is empty)

	// Tail reports how the active journal ended: a clean boundary or a
	// torn partial record (the normal mid-write crash artifact).
	Tail TailState
	// Midstream counts corrupt regions *inside* journal data with valid
	// records beyond them — bit rot or a misdirected write, never a crash.
	// Replay resynchronizes past each region instead of silently
	// truncating the good records that follow.
	Midstream int
	// Masked counts records that one copy of a mirrored pair had lost but
	// the other copy supplied.
	Masked int
	// CorruptCopies counts file copies (snapshot slots, segment halves,
	// journal halves) that failed verification but were covered by their
	// mirror or a fallback generation.
	CorruptCopies int
	// SnapshotFallback is set when the newest snapshot generation was
	// unreadable and recovery fell back to the older good generation
	// (with a correspondingly longer journal replay).
	SnapshotFallback bool
}

// Newest returns the newest committed payload: the last journal entry
// when there is one, else the snapshot, else nil. In a store whose every
// record is a whole state image, as the controller and panel journals
// are, that one payload is the entire committed state.
func (r *LoadResult) Newest() []byte {
	if n := len(r.Entries); n > 0 {
		return r.Entries[n-1]
	}
	return r.Snapshot
}

// rec is one decoded journal record.
type rec struct {
	seq     uint64
	payload []byte
}

// fileScan is the result of CRC-walking one journal file copy.
type fileScan struct {
	recs      []rec
	midstream int  // corrupt regions with a valid record beyond them
	torn      bool // trailing bytes after the last valid record
	missing   bool // the file does not exist
}

// dirState is loadFull's working view of a store directory: the public
// LoadResult plus what Open needs to normalize the active journal pair.
type dirState struct {
	res         *LoadResult
	slotSeq     [2]uint64 // intact generation seq per slot (0 = none)
	maxSeal     uint64    // highest sealed-segment seq
	rawActive   []byte    // journal.log bytes as found (nil if missing)
	rawMirror   []byte    // journal.mir bytes as found (nil if missing)
	activeCanon []rec     // canonical active-journal records (seq > maxSeal), ascending
}

// Load reads the store without opening it for writing, through the real
// filesystem. See LoadFS.
func Load(dir string) (*LoadResult, error) { return LoadFS(Disk, dir) }

// LoadFS reads the store rooted at dir through fsys. A missing directory
// or missing files yield an empty result; torn tails are dropped;
// mid-stream damage is resynchronized past and reported; a snapshot with
// no intact generation at all is an error.
func LoadFS(fsys FS, dir string) (*LoadResult, error) {
	st, err := loadFull(fsys, dir)
	if err != nil {
		return nil, err
	}
	return st.res, nil
}

// snapCand is one snapshot generation candidate during load.
type snapCand struct {
	payload []byte
	seq     uint64
	ok      bool
	present bool   // at least one copy exists on disk
	hdrSeq  uint64 // best-effort seq from the header of a damaged copy
	hdrOK   bool
}

// loadFull reads and reconciles every file of the store.
func loadFull(fsys FS, dir string) (*dirState, error) {
	st := &dirState{res: &LoadResult{}}
	res := st.res

	// Snapshot generations: each slot is a mirrored pair.
	cands := make([]snapCand, 0, 2)
	for slot := 0; slot < 2; slot++ {
		c := loadBlobPair(fsys,
			filepath.Join(dir, slotName(slot)),
			filepath.Join(dir, slotMirror(slot)),
			&res.CorruptCopies)
		if c.ok {
			st.slotSeq[slot] = c.seq
		}
		cands = append(cands, c)
	}

	anyPresent := false
	best := -1
	for i, c := range cands {
		if c.present {
			anyPresent = true
		}
		if c.ok && (best < 0 || c.seq > cands[best].seq) {
			best = i
		}
	}
	if best < 0 && anyPresent {
		return nil, ErrCorruptSnapshot
	}
	if best >= 0 {
		chosen := cands[best]
		res.Snapshot = chosen.payload
		res.SnapshotSeq = chosen.seq
		res.LastSeq = chosen.seq
		for _, c := range cands {
			if c.present && !c.ok && c.hdrOK && c.hdrSeq > chosen.seq {
				// A newer generation existed but no copy of it survived:
				// recovery falls back to the older generation and leans on
				// a longer replay through the sealed segments.
				res.SnapshotFallback = true
			}
		}
	}

	// Records: the union by seq of every sealed segment pair plus the
	// active journal pair. Sealed history is processed first so a
	// crash-interrupted seal (half the pair renamed) never duplicates.
	recs := make(map[uint64][]byte)
	addUnion := func(primary, mirror fileScan) []uint64 {
		union := make(map[uint64][]byte)
		for _, r := range primary.recs {
			union[r.seq] = r.payload
		}
		for _, r := range mirror.recs {
			if _, dup := union[r.seq]; !dup {
				union[r.seq] = r.payload
			}
		}
		seqs := make([]uint64, 0, len(union))
		for seq := range union {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		inScan := func(sc fileScan, seq uint64) bool {
			for _, r := range sc.recs {
				if r.seq == seq {
					return true
				}
			}
			return false
		}
		for _, seq := range seqs {
			if (!primary.missing && !inScan(primary, seq)) ||
				(!mirror.missing && !inScan(mirror, seq)) {
				res.Masked++
			}
			if _, dup := recs[seq]; !dup {
				recs[seq] = union[seq]
			}
			if res.LastSeq < seq {
				res.LastSeq = seq
			}
		}
		res.Midstream += primary.midstream + mirror.midstream
		return seqs
	}

	names, err := fsys.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	for _, name := range names {
		seq, ok := segSeq(name)
		if !ok {
			continue
		}
		if st.maxSeal < seq {
			st.maxSeal = seq
		}
		p, m := segName(seq)
		pScan := scanJournalFile(fsys, filepath.Join(dir, p))
		mScan := scanJournalFile(fsys, filepath.Join(dir, m))
		// A sealed segment is immutable: any midstream damage, torn end,
		// or missing half is a degraded copy the scrubber should repair.
		if pScan.missing || pScan.midstream > 0 || pScan.torn {
			res.CorruptCopies++
		}
		if mScan.missing || mScan.midstream > 0 || mScan.torn {
			res.CorruptCopies++
		}
		addUnion(pScan, mScan)
	}

	st.rawActive = readIfExists(fsys, filepath.Join(dir, journalName))
	st.rawMirror = readIfExists(fsys, filepath.Join(dir, journalMirror))
	pScan := scanJournal(st.rawActive, st.rawActive == nil)
	mScan := scanJournal(st.rawMirror, st.rawMirror == nil)
	if pScan.torn || mScan.torn {
		res.Tail = TailTorn
	}
	// A torn tail is the normal mid-append crash artifact and stays out of
	// the corruption counts; mid-stream damage in either copy does not.
	// A missing mirror next to a primary is the pre-mirror layout
	// upgrading in place, but a missing *primary* means it was renamed
	// away and only the mirror covered it.
	if pScan.missing && !mScan.missing {
		res.CorruptCopies++
	}
	if pScan.midstream > 0 {
		res.CorruptCopies++
	}
	if mScan.midstream > 0 {
		res.CorruptCopies++
	}
	activeSeqs := addUnion(pScan, mScan)
	for _, seq := range activeSeqs {
		if seq > st.maxSeal {
			st.activeCanon = append(st.activeCanon, rec{seq: seq, payload: recs[seq]})
		}
	}

	// Replay set: every unioned record newer than the chosen snapshot.
	all := make([]uint64, 0, len(recs))
	for seq := range recs {
		all = append(all, seq)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, seq := range all {
		if res.Snapshot != nil && seq <= res.SnapshotSeq {
			continue // superseded by the snapshot
		}
		res.Entries = append(res.Entries, recs[seq])
		res.EntrySeqs = append(res.EntrySeqs, seq)
	}
	return st, nil
}

// loadBlobPair reads a mirrored snapshot slot, preferring the primary and
// falling back to the mirror, counting copies that fail verification.
func loadBlobPair(fsys FS, primary, mirror string, corrupt *int) snapCand {
	p := loadBlobSolo(fsys, primary, corrupt)
	m := loadBlobSolo(fsys, mirror, nil)
	switch {
	case p.ok && m.ok:
		// A crash between the two copy writes leaves the mirror one
		// generation behind; the newer copy wins, the scrubber resyncs.
		if m.seq > p.seq {
			return m
		}
		return p
	case p.ok:
		if m.present && corrupt != nil {
			*corrupt++
		}
		return p
	case m.ok:
		if corrupt != nil && !p.present {
			*corrupt++ // primary renamed away; the mirror covered it
		}
		m.present = m.present || p.present
		if p.hdrOK && p.hdrSeq > m.hdrSeq {
			m.hdrSeq, m.hdrOK = p.hdrSeq, true
		}
		return m
	default:
		if m.present && corrupt != nil {
			*corrupt++
		}
		if m.hdrOK && m.hdrSeq > p.hdrSeq {
			p.hdrSeq, p.hdrOK = m.hdrSeq, true
		}
		p.present = p.present || m.present
		return p
	}
}

// loadBlobSolo reads one snapshot copy.
func loadBlobSolo(fsys FS, name string, corrupt *int) snapCand {
	b, err := fsys.ReadFile(name)
	if err != nil {
		return snapCand{}
	}
	payload, seq, perr := DecodeBlob(b)
	if perr != nil {
		if corrupt != nil {
			*corrupt++
		}
		hdrSeq, hdrOK := blobSeq(b)
		return snapCand{present: true, hdrSeq: hdrSeq, hdrOK: hdrOK}
	}
	return snapCand{payload: payload, seq: seq, ok: true, present: true, hdrSeq: seq, hdrOK: true}
}

// readIfExists returns the file's bytes or nil if it does not exist; any
// other read error also yields nil and is caught later by the scan's
// missing handling (the mirror covers it).
func readIfExists(fsys FS, name string) []byte {
	b, err := fsys.ReadFile(name)
	if err != nil {
		return nil
	}
	return b
}

// scanJournalFile reads and CRC-walks one journal file copy.
func scanJournalFile(fsys FS, name string) fileScan {
	b, err := fsys.ReadFile(name)
	if err != nil {
		return fileScan{missing: true}
	}
	return scanJournal(b, false)
}

// scanJournal CRC-walks one journal copy. At a record that fails to
// verify it scans forward for the next valid record with a higher seq —
// resynchronizing past mid-stream damage instead of silently dropping
// every good record after it — and classifies trailing unparseable bytes
// as a torn tail.
func scanJournal(raw []byte, missing bool) fileScan {
	sc := fileScan{missing: missing}
	if missing {
		return sc
	}
	off := 0
	for off < len(raw) {
		payload, seq, n := parseRecord(raw[off:])
		if n > 0 {
			sc.recs = append(sc.recs, rec{seq: seq, payload: payload})
			off += n
			continue
		}
		// Damage at off. Hunt for a resync point: a record that verifies
		// and whose seq continues the monotonic stream (rejecting garbage
		// that happens to frame-parse).
		resync := -1
		for r := off + 1; r+recordHeader <= len(raw); r++ {
			_, rseq, rn := parseRecord(raw[r:])
			if rn == 0 {
				continue
			}
			if len(sc.recs) == 0 || rseq > sc.recs[len(sc.recs)-1].seq {
				resync = r
				break
			}
		}
		if resync < 0 {
			sc.torn = true
			return sc
		}
		sc.midstream++
		off = resync
	}
	return sc
}

// parseRecord decodes one journal record from b. It returns the payload
// (a copy), the sequence number, and the number of bytes consumed; a
// torn, corrupt, or absent record returns n == 0.
func parseRecord(b []byte) (payload []byte, seq uint64, n int) {
	if len(b) < recordHeader {
		return nil, 0, 0
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > maxRecord || recordHeader+int(plen) > len(b) {
		return nil, 0, 0
	}
	seq = binary.LittleEndian.Uint64(b[4:12])
	want := binary.LittleEndian.Uint32(b[12:16])
	body := b[recordHeader : recordHeader+int(plen)]
	if recordCRC(seq, body) != want {
		return nil, 0, 0
	}
	return append([]byte(nil), body...), seq, recordHeader + int(plen)
}

// recordCRC checksums the sequence number together with the payload so a
// record copied to the wrong position in the file does not verify.
func recordCRC(seq uint64, payload []byte) uint32 {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], seq)
	crc := crc32.ChecksumIEEE(hdr[:])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// encodeRecords frames records back into journal bytes — the inverse of
// scanJournal for an undamaged file, used to normalize a journal pair.
func encodeRecords(recs []rec) []byte {
	size := 0
	for _, r := range recs {
		size += recordHeader + len(r.payload)
	}
	out := make([]byte, 0, size)
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.payload)))
		out = binary.LittleEndian.AppendUint64(out, r.seq)
		out = binary.LittleEndian.AppendUint32(out, recordCRC(r.seq, r.payload))
		out = append(out, r.payload...)
	}
	return out
}

// blobHeader is the snapshot/image framing prefix.
const blobHeader = 4 + 1 + 8 + 4 + 4 // magic | version | seq | crc | len

// EncodeBlob frames a payload the way snapshots are stored on disk:
// magic, version, sequence, checksum, length, payload. The fleet image
// store uses the same framing for checkpoint images so one scrubber
// verifies both.
func EncodeBlob(seq uint64, payload []byte) []byte {
	out := make([]byte, blobHeader, blobHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], snapshotMagic)
	out[4] = storeVersion
	binary.LittleEndian.PutUint64(out[5:13], seq)
	binary.LittleEndian.PutUint32(out[13:17], recordCRC(seq, payload))
	binary.LittleEndian.PutUint32(out[17:21], uint32(len(payload)))
	return append(out, payload...)
}

// DecodeBlob validates and unwraps a snapshot-framed blob.
func DecodeBlob(b []byte) (payload []byte, seq uint64, err error) {
	if len(b) < blobHeader {
		return nil, 0, ErrCorruptSnapshot
	}
	if binary.LittleEndian.Uint32(b[0:4]) != snapshotMagic || b[4] != storeVersion {
		return nil, 0, ErrCorruptSnapshot
	}
	seq = binary.LittleEndian.Uint64(b[5:13])
	want := binary.LittleEndian.Uint32(b[13:17])
	plen := binary.LittleEndian.Uint32(b[17:21])
	if plen > maxRecord || blobHeader+int(plen) != len(b) {
		return nil, 0, ErrCorruptSnapshot
	}
	payload = b[blobHeader:]
	if recordCRC(seq, payload) != want {
		return nil, 0, ErrCorruptSnapshot
	}
	return payload, seq, nil
}

// blobSeq pulls the best-effort sequence out of a (possibly damaged)
// snapshot copy's header, so fallback can tell whether a newer generation
// was lost.
func blobSeq(b []byte) (uint64, bool) {
	if len(b) < 13 || binary.LittleEndian.Uint32(b[0:4]) != snapshotMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[5:13]), true
}

// Store is an open journal directory. It is not safe for concurrent use;
// the control loop owns it.
type Store struct {
	fsys FS
	dir  string
	f    File // active journal primary
	fm   File // active journal mirror
	seq  uint64

	// Sync controls whether Append fsyncs after each record. On by
	// default — commit means durable. Benchmarks and the chaos harness
	// may disable it to trade durability for wall-clock time; the
	// framing keeps replay correct either way.
	Sync bool

	frame []byte // reusable framing buffer so Append never allocates

	failed  error     // first write/fsync failure; poisons the store
	slotSeq [2]uint64 // intact snapshot generation per slot
	maxSeal uint64    // highest sealed-segment seq
	jsize   int64     // bytes in the active journal pair
}

// Open creates (or reopens) the store rooted at dir on the real
// filesystem. See OpenFS.
func Open(dir string) (*Store, error) { return OpenFS(Disk, dir) }

// OpenFS creates (or reopens) the store rooted at dir through fsys. The
// active journal pair is normalized to the union of its valid records:
// any torn tail left by a crash is dropped, any record one copy lost is
// restored from the other, and new records append after the last good
// one.
func OpenFS(fsys FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	st, err := loadFull(fsys, dir)
	if err != nil {
		return nil, err
	}
	canon := encodeRecords(st.activeCanon)
	rewrote := false
	if !bytes.Equal(st.rawActive, canon) {
		if err := writeFileAtomic(fsys, dir, journalName, canon); err != nil {
			return nil, err
		}
		rewrote = true
	}
	if !bytes.Equal(st.rawMirror, canon) {
		if err := writeFileAtomic(fsys, dir, journalMirror, canon); err != nil {
			return nil, err
		}
		rewrote = true
	}
	if rewrote {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	f, err := openAtEnd(fsys, filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	fm, err := openAtEnd(fsys, filepath.Join(dir, journalMirror))
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &Store{
		fsys:    fsys,
		dir:     dir,
		f:       f,
		fm:      fm,
		seq:     st.res.LastSeq,
		Sync:    true,
		slotSeq: st.slotSeq,
		maxSeal: st.maxSeal,
		jsize:   int64(len(canon)),
	}, nil
}

// openAtEnd opens a journal file for appending.
func openAtEnd(fsys FS, name string) (File, error) {
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_RDWR)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return f, nil
}

// writeFileAtomic writes name inside dir via the write-temp + fsync +
// rename sequence. The caller fsyncs the directory.
func writeFileAtomic(fsys FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, snapshotTemp)
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// Dir returns the state directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Failed returns the write or fsync error that poisoned the store, or nil
// while the store is healthy. A poisoned store rejects every Append and
// Snapshot with ErrPoisoned; the owner must discard the handle and
// rebuild from the last good on-disk state.
func (s *Store) Failed() error { return s.failed }

// poison records the first I/O failure and returns it.
func (s *Store) poison(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// Append commits one state payload to the journal pair and (with Sync
// set) fsyncs both copies before returning. The payload is copied into
// the store's framing buffer, so the caller may reuse its own buffer
// immediately. Any write or fsync failure poisons the store.
func (s *Store) Append(payload []byte) (uint64, error) {
	if s.failed != nil {
		return 0, fmt.Errorf("%w: %v", ErrPoisoned, s.failed)
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("journal: payload %d bytes exceeds record limit", len(payload))
	}
	s.seq++
	s.frame = s.frame[:0]
	s.frame = binary.LittleEndian.AppendUint32(s.frame, uint32(len(payload)))
	s.frame = binary.LittleEndian.AppendUint64(s.frame, s.seq)
	// CRC over the seq bytes already in the (heap-held) frame buffer, so
	// no stack array escapes into the hash call.
	crc := crc32.ChecksumIEEE(s.frame[4:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	s.frame = binary.LittleEndian.AppendUint32(s.frame, crc)
	s.frame = append(s.frame, payload...)
	if _, err := s.f.Write(s.frame); err != nil {
		return 0, s.poison(err)
	}
	if _, err := s.fm.Write(s.frame); err != nil {
		return 0, s.poison(err)
	}
	if s.Sync {
		if err := s.f.Sync(); err != nil {
			return 0, s.poison(err)
		}
		if err := s.fm.Sync(); err != nil {
			return 0, s.poison(err)
		}
	}
	s.jsize += int64(len(s.frame))
	return s.seq, nil
}

// Snapshot atomically writes payload as a new snapshot generation over
// the *older* slot (primary and mirror copy), then seals the journal pair
// into an immutable segment pair and starts a fresh journal. A crash at
// any point leaves at least one intact generation: either the old one
// (journal intact, replay as before) or the new one (journal records now
// superseded by seq-gating). Sealed segments that both surviving
// generations have compacted past are pruned. Any failure poisons the
// store.
func (s *Store) Snapshot(payload []byte) error {
	if s.failed != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, s.failed)
	}
	s.seq++
	blob := EncodeBlob(s.seq, payload)
	target := 0
	if s.slotSeq[0] > s.slotSeq[1] {
		target = 1
	}
	if err := writeFileAtomic(s.fsys, s.dir, slotName(target), blob); err != nil {
		return s.poison(err)
	}
	if err := writeFileAtomic(s.fsys, s.dir, slotMirror(target), blob); err != nil {
		return s.poison(err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return s.poison(err)
	}
	if err := s.seal(); err != nil {
		return s.poison(err)
	}
	other := s.slotSeq[1-target]
	s.slotSeq[target] = s.seq
	if other > 0 {
		// Both slots now hold intact generations: history at or below the
		// older one can never be replayed again.
		if err := s.prune(other); err != nil {
			return err
		}
	}
	return nil
}

// seal syncs and renames the active journal pair into an immutable
// segment pair, then reopens a fresh pair. A journal with no records is
// left in place.
func (s *Store) seal() error {
	if s.jsize == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.fm.Sync(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	if err := s.fm.Close(); err != nil {
		return err
	}
	sealSeq := s.seq - 1 // the snapshot took s.seq; records stop below it
	p, m := segName(sealSeq)
	if err := s.fsys.Rename(filepath.Join(s.dir, journalName), filepath.Join(s.dir, p)); err != nil {
		return err
	}
	if err := s.fsys.Rename(filepath.Join(s.dir, journalMirror), filepath.Join(s.dir, m)); err != nil {
		return err
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return err
	}
	if s.maxSeal < sealSeq {
		s.maxSeal = sealSeq
	}
	f, err := openAtEnd(s.fsys, filepath.Join(s.dir, journalName))
	if err != nil {
		return err
	}
	fm, err := openAtEnd(s.fsys, filepath.Join(s.dir, journalMirror))
	if err != nil {
		return errors.Join(err, f.Close())
	}
	s.f, s.fm = f, fm
	s.jsize = 0
	return nil
}

// prune removes sealed segments wholly at or below seq.
func (s *Store) prune(seq uint64) error {
	names, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		sseq, ok := segSeq(name)
		if !ok || sseq > seq {
			continue
		}
		p, m := segName(sseq)
		if err := s.fsys.Remove(filepath.Join(s.dir, p)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err := s.fsys.Remove(filepath.Join(s.dir, m)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// Close fsyncs and closes the journal pair. A poisoned store skips the
// syncs (they cannot be trusted) and reports the poisoning error.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	var errs []error
	if s.failed == nil {
		if err := s.f.Sync(); err != nil {
			errs = append(errs, err)
		}
		if err := s.fm.Sync(); err != nil {
			errs = append(errs, err)
		}
	} else {
		errs = append(errs, s.failed)
	}
	if err := s.f.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.fm.Close(); err != nil {
		errs = append(errs, err)
	}
	s.f, s.fm = nil, nil
	return errors.Join(errs...)
}

// TruncateAfterSeqFS rolls the journal in dir back through fsys so the
// last record has a sequence number at or below seq, discarding
// everything committed after it. The fleet daemon uses this on resume:
// its day-boundary snapshot names the migration-log seq at the start of
// the day, the tail of the log (the partial day the crash interrupted) is
// cut back to that point, and the day is re-run deterministically —
// regenerating the same records the dead process wrote, so the healed log
// is bit-identical to one from a process that never died.
//
// A snapshot or sealed segment newer than seq cannot be rolled back
// (both are destructive compaction) and is an error. The store must not
// be open.
func TruncateAfterSeqFS(fsys FS, dir string, seq uint64) error {
	st, err := loadFull(fsys, dir)
	if err != nil {
		return err
	}
	if st.res.Snapshot != nil && st.res.SnapshotSeq > seq {
		return fmt.Errorf("journal: cannot truncate to seq %d: snapshot already at seq %d", seq, st.res.SnapshotSeq)
	}
	if st.maxSeal > seq {
		return fmt.Errorf("journal: cannot truncate to seq %d: history sealed through seq %d", seq, st.maxSeal)
	}
	keep := st.activeCanon[:0:0]
	for _, r := range st.activeCanon {
		if r.seq <= seq {
			keep = append(keep, r)
		}
	}
	canon := encodeRecords(keep)
	rewrote := false
	if !bytes.Equal(st.rawActive, canon) {
		if err := writeFileAtomic(fsys, dir, journalName, canon); err != nil {
			return err
		}
		rewrote = true
	}
	if !bytes.Equal(st.rawMirror, canon) {
		if err := writeFileAtomic(fsys, dir, journalMirror, canon); err != nil {
			return err
		}
		rewrote = true
	}
	if rewrote {
		return fsys.SyncDir(dir)
	}
	return nil
}

// TruncateTail chops n bytes off the end of both copies of the active
// journal — the test and chaos-harness hook that manufactures a torn tail
// exactly the way a mid-write power cut does (the cut tears the pair
// together: both copies were mid-append). Chopping more bytes than a file
// holds empties it.
func TruncateTail(dir string, n int64) error {
	return TruncateTailFS(Disk, dir, n)
}

// TruncateTailFS is TruncateTail through fsys.
func TruncateTailFS(fsys FS, dir string, n int64) error {
	for _, name := range []string{journalName, journalMirror} {
		path := filepath.Join(dir, name)
		st, err := fsys.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		size := st.Size() - n
		if size < 0 {
			size = 0
		}
		f, err := fsys.OpenFile(path, os.O_RDWR)
		if err != nil {
			return err
		}
		if err := f.Truncate(size); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
