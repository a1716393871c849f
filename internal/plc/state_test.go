package plc

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"insure/internal/journal"
)

// TestRegisterFileLayoutGolden pins the bytes of the register file's
// command image: written coils and holding registers encode to the
// committed testdata, and the image decodes into a fresh register file
// that re-encodes byte for byte.
func TestRegisterFileLayoutGolden(t *testing.T) {
	live := NewRegisterFile(12, 4, 6, 8)
	for _, a := range []uint16{1, 4, 5, 11} {
		if err := live.WriteCoil(a, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.WriteHolding(1, []uint16{400, 0xBEEF, 7}); err != nil {
		t.Fatal(err)
	}
	// The plant-mirrored banks stay out of the image.
	if err := live.SetInputs(0, []uint16{9, 9}); err != nil {
		t.Fatal(err)
	}

	var e journal.Encoder
	live.Walk(journal.Encoding(&e))
	matchGolden(t, "register_file.golden", e.Bytes())
	fresh := NewRegisterFile(12, 4, 6, 8)
	d := journal.NewDecoder(e.Bytes())
	fresh.Walk(journal.Decoding(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	var e2 journal.Encoder
	fresh.Walk(journal.Encoding(&e2))
	if !bytes.Equal(e2.Bytes(), e.Bytes()) {
		t.Error("decoded register file does not re-encode byte for byte")
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
