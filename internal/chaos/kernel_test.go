package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"insure/internal/fleet"
	"insure/internal/sim"
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

// TestFleetWatchesTallyPerSite breaches two sites of the federated storm
// fixture in the same control period, in each of eight periods: at 150 s
// past every hour from 9h to 16h, mid-period, a hook wrapped around the
// watches of sites 2 and 0 closes both contacts of pair 0 before the watch
// checks, and that tick's PLC scan drives the pair back to its coils. The
// sites tick concurrently on the pool (run this under -race), so each
// watch tallies into its own Verdict; the campaign's verdict must hold
// exactly the sixteen breaches, site-major whatever the schedule.
func TestFleetWatchesTallyPerSite(t *testing.T) {
	breach := func(tod time.Duration) bool {
		return tod%time.Hour == 150*time.Second && tod >= 9*time.Hour && tod < 17*time.Hour
	}
	cfg := DefaultSiteLossConfig(2015)
	cfg.Days = 1
	v := new(Verdict)
	f, err := newStormFleet(cfg, v)
	if err != nil {
		t.Fatal(err)
	}
	f.c, err = fleet.New(fleet.Config{Prepare: func(day int, fl *sim.Fleet) {
		f.prepare(day, fl)
		for _, i := range []int{2, 0} {
			w, p := f.watches[i], fl.System(i).Fabric.Pair(0)
			fl.System(i).SetTickHook(func(tod time.Duration) {
				if breach(tod) {
					p.Charge.Set(true)
					p.Discharge.Set(true)
				}
				w.tick(tod)
			})
		}
	}}, f.sites)
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Close()
	if err := f.run(nil); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, i := range []int{0, 2} {
		for h := 9 * time.Hour; h < 17*time.Hour; h += time.Hour {
			want = append(want, fmt.Sprintf("day 0 site %d: unit 0: charge and discharge contacts both closed at %v", i, h+150*time.Second))
		}
	}
	if v.ViolationCount != len(want) || !reflect.DeepEqual(v.Violations, want) {
		t.Errorf("%d violations %q, want %q", v.ViolationCount, v.Violations, want)
	}
}

// TestVerdictAbsorbKeepsCap folds verdicts past the detail cap: the count
// stays exact and the kept messages are the first maxViolationDetail in
// fold order.
func TestVerdictAbsorbKeepsCap(t *testing.T) {
	var v Verdict
	var want []string
	for site := 0; site < 3; site++ {
		u := new(Verdict)
		for k := 0; k < 7; k++ {
			u.violate("site %d breach %d", site, k)
			if len(want) < maxViolationDetail {
				want = append(want, fmt.Sprintf("site %d breach %d", site, k))
			}
		}
		v.absorb(u)
	}
	if v.ViolationCount != 21 || !reflect.DeepEqual(v.Violations, want) {
		t.Errorf("%d violations %q, want 21 with %q", v.ViolationCount, v.Violations, want)
	}
}
