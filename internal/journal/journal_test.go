package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sample is a layout that walks every value kind the codec has.
type sample struct {
	u8       uint8
	u16      uint16
	u64      uint64
	i64      int64
	n        int
	pi, zero float64
	yes, no  bool
	dur      time.Duration
	s, empty string
}

func (v *sample) walk(c Codec) {
	c.Version(3)
	c.U8(&v.u8)
	c.U16(&v.u16)
	c.U64(&v.u64)
	I64(c, &v.i64)
	Int(c, &v.n)
	F64(c, &v.pi)
	F64(c, &v.zero)
	c.Bool(&v.yes)
	c.Bool(&v.no)
	I64(c, &v.dur)
	c.String(&v.s)
	c.String(&v.empty)
}

// TestCodecRoundTrip: a decoding walk reads back exactly what the Encoder
// appended, bit-exact floats included, and an encoding walk of the result
// writes the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(3)
	e.U8(7)
	e.U16(65535)
	e.U64(1<<63 + 12345)
	e.I64(-42)
	e.Int(-7)
	e.F64(3.141592653589793)
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.Bool(false)
	e.Dur(90 * time.Minute)
	e.String("quarantine: ghost current")
	e.String("")

	var got sample
	d := NewDecoder(e.Bytes())
	got.walk(Decoding(d))
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	want := sample{u8: 7, u16: 65535, u64: 1<<63 + 12345, i64: -42, n: -7,
		pi: 3.141592653589793, zero: math.Copysign(0, -1), yes: true,
		dur: 90 * time.Minute, s: "quarantine: ghost current"}
	if got != want || !math.Signbit(got.zero) { // -0.0 must round-trip bit-exactly
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
	var again Encoder
	got.walk(Encoding(&again))
	if !bytes.Equal(again.Bytes(), e.Bytes()) {
		t.Error("encoding walk of the decoded value differs from the original bytes")
	}
}

// TestDecoderStickyError: after a short read every later walked value is
// left untouched, and a wrong version byte fails the walk.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	c := Decoding(d)
	var u uint64
	c.U64(&u) // too short
	if d.Err() == nil {
		t.Fatal("want error on short read")
	}
	f := 2.5
	F64(c, &f)
	if f != 2.5 {
		t.Errorf("read after error overwrote the value with %v", f)
	}
	d = NewDecoder([]byte{2})
	Decoding(d).Version(1)
	if d.Err() == nil {
		t.Error("want error on a version mismatch")
	}
}

func TestEncoderAppendDoesNotAllocateAfterWarmup(t *testing.T) {
	var e Encoder
	fill := func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.F64(float64(i) * 1.5)
			e.Bool(i%2 == 0)
			e.Int(i)
		}
	}
	fill() // warm the buffer to steady-state capacity
	allocs := testing.AllocsPerRun(100, fill)
	if allocs != 0 {
		t.Errorf("encoder reuse allocates %.1f/op, want 0", allocs)
	}
}

func TestStoreAppendLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append([]byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil {
		t.Error("unexpected snapshot")
	}
	if len(res.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(res.Entries))
	}
	for i, e := range res.Entries {
		if !bytes.Equal(e, []byte{byte(i), byte(i + 1)}) {
			t.Errorf("entry %d = %v", i, e)
		}
		if res.EntrySeqs[i] != uint64(i+1) {
			t.Errorf("seq %d = %d", i, res.EntrySeqs[i])
		}
	}
	if res.LastSeq != 5 {
		t.Errorf("LastSeq = %d", res.LastSeq)
	}
}

func TestStoreSnapshotGatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("old-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("new-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Snapshot) != "snap" {
		t.Errorf("snapshot = %q", res.Snapshot)
	}
	if len(res.Entries) != 1 || string(res.Entries[0]) != "new-1" {
		t.Errorf("entries = %q, want [new-1]", res.Entries)
	}

	// Crash between snapshot rename and journal truncate: simulate by
	// re-appending a record with a stale seq — covered structurally by
	// seq-gating, asserted here via the snapshot seq ordering.
	if res.EntrySeqs[0] <= res.SnapshotSeq {
		t.Error("journal entry not sequenced after snapshot")
	}
}

func TestStoreTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("good-record")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("torn-record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := TruncateTail(dir, 3); err != nil {
		t.Fatal(err)
	}

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || string(res.Entries[0]) != "good-record" {
		t.Fatalf("entries after torn tail = %q, want [good-record]", res.Entries)
	}

	// Reopen must truncate the torn bytes and continue the seq chain.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s2.Append([]byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	// The torn record's seq is reused: its bytes were truncated away, so
	// the on-disk chain stays gapless.
	if seq != 2 {
		t.Errorf("post-crash seq = %d, want 2", seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 || string(res.Entries[1]) != "after-crash" {
		t.Fatalf("entries after reopen = %q", res.Entries)
	}
}

// corruptByte flips one byte in every named file that exists.
func corruptByte(t *testing.T, dir string, offset int, names ...string) {
	t.Helper()
	for _, name := range names {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		off := offset
		if off < 0 {
			off += len(raw)
		}
		raw[off] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreMidstreamCorruptionResyncs(t *testing.T) {
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

	// Flip a payload byte in the middle record of BOTH copies: the damaged
	// record is lost, but — unlike a torn tail — replay must resynchronize
	// and keep the good record after it, and must say so.
	rec := recordHeader + 2
	corruptByte(t, dir, rec+recordHeader, journalName, journalMirror)

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (replay resyncs past corruption)", len(res.Entries))
	}
	if res.EntrySeqs[0] != 1 || res.EntrySeqs[1] != 3 {
		t.Errorf("seqs = %v, want [1 3]", res.EntrySeqs)
	}
	if res.Midstream == 0 {
		t.Error("midstream corruption not reported")
	}
	if res.Tail != TailClean {
		t.Errorf("tail = %v, want clean (damage was mid-stream, not a crash)", res.Tail)
	}
}

func TestStoreMirrorMasksCorruptRecord(t *testing.T) {
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

	// Damage only the primary: the mirror must supply the lost record and
	// the load must report the masking.
	rec := recordHeader + 2
	corruptByte(t, dir, rec+recordHeader, journalName)

	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (mirror masks the damage)", len(res.Entries))
	}
	if res.Masked == 0 {
		t.Error("masked recovery not reported")
	}
	if res.Midstream == 0 || res.CorruptCopies == 0 {
		t.Errorf("Midstream=%d CorruptCopies=%d, want both > 0", res.Midstream, res.CorruptCopies)
	}

	// Reopen normalizes the pair back to the full record set.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 || res.Midstream != 0 || res.Masked != 0 {
		t.Errorf("after reopen: entries=%d Midstream=%d Masked=%d, want 3/0/0",
			len(res.Entries), res.Midstream, res.Masked)
	}
}

func TestStoreCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("snapshot-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt every copy of the only generation: nothing intact remains
	// and the load must fail loudly rather than boot from zero.
	corruptByte(t, dir, -1, slotName(0), slotMirror(0), slotName(1), slotMirror(1))
	if _, err := Load(dir); err == nil {
		t.Fatal("want error loading corrupt snapshot")
	}
}

func TestStoreSnapshotMirrorCoversCorruptPrimary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("snapshot-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, dir, -1, slotName(0))
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Snapshot) != "snapshot-payload" {
		t.Fatalf("snapshot = %q, want mirror copy to cover", res.Snapshot)
	}
	if res.CorruptCopies == 0 {
		t.Error("corrupt primary not counted")
	}
}

func TestStoreFallsBackToOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("rec-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("gen-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("rec-2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("gen-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("rec-3")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy both copies of the newest generation (slot B holds gen-2:
	// gen-1 went to slot A, gen-2 to the older empty slot B). Recovery
	// must fall back to gen-1 and replay the sealed segment after it.
	res, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Snapshot) != "gen-2" {
		t.Fatalf("pre-damage snapshot = %q, want gen-2", res.Snapshot)
	}
	newest := slotName(1)
	newestMir := slotMirror(1)
	if string(mustRead(t, dir, slotName(0))[blobHeader:]) == "gen-2" {
		newest, newestMir = slotName(0), slotMirror(0)
	}
	corruptByte(t, dir, -1, newest, newestMir)

	res, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Snapshot) != "gen-1" {
		t.Fatalf("snapshot = %q, want fallback to gen-1", res.Snapshot)
	}
	if !res.SnapshotFallback {
		t.Error("fallback not reported")
	}
	// The longer replay must carry every record after gen-1: rec-2 from
	// the sealed segment and rec-3 from the active journal.
	var got []string
	for _, e := range res.Entries {
		got = append(got, string(e))
	}
	if len(got) != 2 || got[0] != "rec-2" || got[1] != "rec-3" {
		t.Fatalf("fallback replay = %q, want [rec-2 rec-3]", got)
	}
}

func mustRead(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStoreSealedSegmentsPruned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot([]byte{0x50, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range names {
		if _, ok := segSeq(e.Name()); ok {
			segs++
		}
	}
	// Only history newer than the older surviving generation may remain:
	// with a snapshot after every record that is exactly one segment.
	if segs != 1 {
		t.Errorf("sealed segments = %d, want 1 (older history pruned)", segs)
	}
}

func TestStorePoisonedByFailedSync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Simulate fsyncgate: force the next sync to fail by swapping the
	// handle for one that errors.
	s.f = failingFile{File: s.f}
	if _, err := s.Append([]byte("doomed")); err == nil {
		t.Fatal("want error from failing sync")
	}
	if s.Failed() == nil {
		t.Fatal("store not poisoned after failed sync")
	}
	if _, err := s.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison = %v, want ErrPoisoned", err)
	}
	if err := s.Snapshot([]byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot after poison = %v, want ErrPoisoned", err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("close of poisoned store must surface the failure")
	}
}

type failingFile struct{ File }

func (f failingFile) Sync() error { return errors.New("injected: fsync failed") }

// pairFS wraps Disk and routes every fsync of the active journal pair
// through onSync, with half 0 the primary and 1 the mirror. With onSync
// nil the files fsync as usual.
type pairFS struct {
	FS
	onSync func(half int, f File) error
}

type pairFile struct {
	File
	fs   *pairFS
	half int
}

func (p *pairFS) OpenFile(name string, flag int) (File, error) {
	f, err := p.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	switch filepath.Base(name) {
	case journalName:
		return &pairFile{File: f, fs: p, half: 0}, nil
	case journalMirror:
		return &pairFile{File: f, fs: p, half: 1}, nil
	}
	return f, nil
}

func (f *pairFile) Sync() error {
	if f.fs.onSync == nil {
		return f.File.Sync()
	}
	return f.fs.onSync(f.half, f.File)
}

// TestAppendOverlapsPairFsyncs pins that a commit waits for one fsync
// latency, not two in a row: each copy's Sync waits for the other copy's
// to start, which two serial fsyncs never do. Append must still return
// only after the mirror's Sync has.
func TestAppendOverlapsPairFsyncs(t *testing.T) {
	const patience = 5 * time.Second
	fsys := &pairFS{FS: Disk}
	s, err := OpenFS(fsys, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	var mirrorReturned atomic.Bool
	fsys.onSync = func(half int, f File) error {
		once[half].Do(func() { close(started[half]) })
		select {
		case <-started[1-half]:
		case <-time.After(patience):
			return fmt.Errorf("half %d's fsync waited %v for the other half's to start", half, patience)
		}
		err := f.Sync()
		if half == 1 {
			time.Sleep(20 * time.Millisecond) // a slow mirror
			mirrorReturned.Store(true)
		}
		return err
	}
	if _, err := s.Append([]byte("both at once")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if !mirrorReturned.Load() {
		t.Fatal("Append returned before the mirror's fsync did")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendPoisonsOnEitherFsyncVerdict pins that both fsync verdicts of
// a commit reach the poisoning: the mirror is synced even when the
// primary's fsync fails, and the primary's error takes precedence.
func TestAppendPoisonsOnEitherFsyncVerdict(t *testing.T) {
	errPrimary := errors.New("injected: primary fsync failed")
	errMirror := errors.New("injected: mirror fsync failed")
	for _, tc := range []struct {
		name            string
		primary, mirror error
		want            error
	}{
		{"primary only", errPrimary, nil, errPrimary},
		{"mirror only", nil, errMirror, errMirror},
		{"both", errPrimary, errMirror, errPrimary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := &pairFS{FS: Disk}
			s, err := OpenFS(fsys, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var mirrorSyncs atomic.Int32
			fsys.onSync = func(half int, f File) error {
				if half == 1 {
					mirrorSyncs.Add(1)
				}
				if fail := [2]error{tc.primary, tc.mirror}[half]; fail != nil {
					return fail
				}
				return f.Sync()
			}
			if _, err := s.Append([]byte("doomed")); !errors.Is(err, tc.want) {
				t.Fatalf("append = %v, want %v", err, tc.want)
			}
			if n := mirrorSyncs.Load(); n != 1 {
				t.Errorf("mirror fsyncs = %d, want 1", n)
			}
			if !errors.Is(s.Failed(), tc.want) {
				t.Errorf("Failed() = %v, want %v", s.Failed(), tc.want)
			}
			if _, err := s.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
				t.Errorf("append after poison = %v, want ErrPoisoned", err)
			}
			if err := s.Close(); !errors.Is(err, tc.want) {
				t.Errorf("close = %v, want the poisoning %v", err, tc.want)
			}
		})
	}
}

func TestStoreEmptyDirectory(t *testing.T) {
	res, err := Load(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != nil || len(res.Entries) != 0 || res.LastSeq != 0 {
		t.Errorf("empty load = %+v", res)
	}
}

func TestStoreAppendDoesNotAllocate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 256)
	if _, err := s.Append(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f/op, want 0", allocs)
	}
}
