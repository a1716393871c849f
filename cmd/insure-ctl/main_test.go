package main

import (
	"fmt"
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

// TestParseBattery pins battery numbering: the argument is the number that
// status and coils print, 1..units, and the coils written are the unit one
// below it. 0 and units+1 are refused with an error that names the range.
func TestParseBattery(t *testing.T) {
	for _, tc := range []struct {
		arg   string
		units int
		want  int // 0-based unit; -1 for an error
	}{
		{"1", 6, 0},
		{"6", 6, 5},
		{"0", 6, -1},
		{"7", 6, -1},
		{"-1", 6, -1},
		{"two", 6, -1},
		{"", 6, -1},
		{"48", plc.MaxUnits, plc.MaxUnits - 1},
	} {
		got, err := parseBattery(tc.arg, tc.units)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("parseBattery(%q, %d) = %d, want an error", tc.arg, tc.units, got)
		case tc.want < 0 && !strings.Contains(err.Error(), fmt.Sprintf("1..%d", tc.units)):
			t.Errorf("parseBattery(%q, %d) = %q, want an error naming 1..%d", tc.arg, tc.units, err, tc.units)
		case tc.want >= 0 && (err != nil || got != tc.want):
			t.Errorf("parseBattery(%q, %d) = %d, %v, want %d", tc.arg, tc.units, got, err, tc.want)
		}
	}
}
