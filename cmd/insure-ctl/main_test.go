package main

import (
	"strings"
	"testing"

	"insure/internal/plc"
)

// TestCheckUnits pins the -units range: 1..plc.MaxUnits, and an error
// that names the flag.
func TestCheckUnits(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{6, true},
		{plc.MaxUnits, true},
		{plc.MaxUnits + 1, false},
		{1 << 20, false},
	} {
		err := checkUnits(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("checkUnits(%d) = %v, want ok %v", tc.n, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-units") {
			t.Errorf("checkUnits(%d) = %q, want an error naming -units", tc.n, err)
		}
	}
}
