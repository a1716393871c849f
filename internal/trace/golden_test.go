package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"insure/internal/solar"
)

// TestSynthesizeGolden pins trace synthesis bit for bit: for each weather
// class it folds the exact bits of every sample into an FNV-1a hash. The
// 1 s step is the one every workload synthesizes at; the 500 ms step keeps
// the sub-second time-of-day path of the clear-sky curve and the sky's
// non-default relaxation step covered. A moved hash means the solar model's
// output changed.
func TestSynthesizeGolden(t *testing.T) {
	for _, tc := range []struct {
		cond solar.Condition
		step time.Duration
		want uint64
	}{
		{solar.Sunny, time.Second, 0x5d39887dfd034229},
		{solar.Cloudy, time.Second, 0xb2b678ebe1da9e0c},
		{solar.Rainy, time.Second, 0x83b0115ee0eebe4d},
		{solar.Sunny, 500 * time.Millisecond, 0x478918ca3201466c},
		{solar.Cloudy, 500 * time.Millisecond, 0x510df47a4c28b3f1},
		{solar.Rainy, 500 * time.Millisecond, 0x08ca5a8b064cda5b},
	} {
		tr := Synthesize(tc.cond, 2015, tc.step)
		h := fnv.New64a()
		var buf [8]byte
		for _, p := range tr.Samples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(p)))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%v at %v: %d samples hash to %#x, want %#x", tc.cond, tc.step, tr.Len(), got, tc.want)
		}
	}
}
