package battery

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// trajectoryHash steps one unit through two simulated hours at step dt —
// 30 min each of heavy discharge, rest, bulk charge, and rest — and folds
// the exact bits of its full state after every step into an FNV-1a hash.
func trajectoryHash(dt time.Duration) uint64 {
	u := MustNew(DefaultParams(), 0.8)
	h := fnv.New64a()
	var buf [8]byte
	fold := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	phase := 30 * time.Minute
	for t := time.Duration(0); t < 4*phase; t += dt {
		switch t / phase {
		case 0:
			u.Discharge(20, dt)
		case 2:
			u.Charge(8, dt)
		default:
			u.Rest(dt)
		}
		st := u.State()
		for _, x := range []float64{st.AvailAh, st.BoundAh, float64(st.LastI),
			float64(st.Throughput), float64(st.RawOut), float64(st.RawIn), st.Cycles} {
			fold(x)
		}
	}
	return h.Sum64()
}

// TestUnitTrajectoryGolden pins the KiBaM kernel's trajectory bit for bit at
// the simulation's 1 s step and at two other steps, so the precomputed 1 s
// relaxation factor and the general exp path are both covered. A change to
// any of these hashes means the battery physics moved.
func TestUnitTrajectoryGolden(t *testing.T) {
	for _, tc := range []struct {
		dt   time.Duration
		want uint64
	}{
		{time.Second, 0xd6dede5b8ac028e1},
		{500 * time.Millisecond, 0x85ff1ef91867df5c},
		{30 * time.Second, 0x5252e218bdcd2d30},
	} {
		if got := trajectoryHash(tc.dt); got != tc.want {
			t.Errorf("dt=%v: trajectory hash = %#x, want %#x", tc.dt, got, tc.want)
		}
	}
}
