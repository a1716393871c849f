//go:build race

package gateway

// raceEnabled reports whether the race detector is compiled in; the
// full-day admission golden is too slow to run under it.
const raceEnabled = true
