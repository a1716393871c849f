package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestWatchFlagsForcedBreaches forces each per-tick breach from outside the
// control plane, on a plant built the way the crash campaign builds one,
// and expects the watch to report exactly one violation with the
// campaigns' message text — or none, for a crash with the ladder off duty.
// SoC is not forced out of bounds: the battery model clamps every write.
func TestWatchFlagsForcedBreaches(t *testing.T) {
	world := func(t *testing.T, armed bool) *watch {
		t.Helper()
		w, err := newWorld(new(Verdict), nil)
		if err != nil {
			t.Fatal(err)
		}
		w.armed = armed
		return w
	}
	expect := func(t *testing.T, w *watch, want ...string) {
		t.Helper()
		if w.v.ViolationCount != len(want) || !reflect.DeepEqual(w.v.Violations, want) {
			t.Errorf("%d violations %q, want %q", w.v.ViolationCount, w.v.Violations, want)
		}
	}
	const at = 9 * time.Hour

	t.Run("relay pair", func(t *testing.T) {
		w := world(t, false)
		// Relay.Set drives one coil and so bypasses Pair.SetMode's interlock.
		p := w.sys.Fabric.Pair(2)
		p.Charge.Set(true)
		p.Discharge.Set(true)
		w.check(at)
		expect(t, w, "unit 2: charge and discharge contacts both closed at 9h0m0s")
	})

	t.Run("series and parallel", func(t *testing.T) {
		w := world(t, false)
		w.sys.Fabric.P1.Set(true)
		w.sys.Fabric.P2.Set(true)
		w.check(at)
		expect(t, w, "series switch P2 closed alongside a parallel switch at 9h0m0s")
	})

	for _, armed := range []bool{true, false} {
		t.Run(fmt.Sprintf("crash armed=%v", armed), func(t *testing.T) {
			w := world(t, armed)
			tod, end := w.sys.Span()
			for ; w.sys.Cluster.RunningVMs() == 0; tod += time.Second {
				if tod >= end {
					t.Fatal("no VM ever ran")
				}
				w.sys.Tick(tod, w.mgr)
			}
			expect(t, w)
			w.sys.Cluster.Crash()
			lost := w.sys.Cluster.VMsLost()
			if lost == 0 {
				t.Fatal("crash with VMs running lost none")
			}
			w.check(tod)
			if armed {
				expect(t, w, fmt.Sprintf("%d VMs lost uncheckpointed at %v", lost, tod))
			} else {
				expect(t, w)
			}
		})
	}
}
