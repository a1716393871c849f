package fleet_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"insure/internal/fleet"
	"insure/internal/sim"
)

// faultyManager panics at its first control pass at or after at.
type faultyManager struct {
	sim.Manager
	at time.Duration
}

func (m faultyManager) Control(sys *sim.System, now time.Duration) {
	if now >= m.at {
		panic(fmt.Sprintf("site manager fault at %v", now))
	}
	m.Manager.Control(sys, now)
}

// poolWorkers counts the goroutines running a campaign pool's worker loop.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*pool).workerLoop")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRunDayRaisesSitePanic has site 1's manager panic mid-day. Its site
// ticks on a pool worker (run this with -cpu 1,4 to cover the inline pool
// as well), so RunDay must raise the panic again on the caller's
// goroutine, where recover catches it, and no pool goroutine may outlive
// the call. RunCells has waited for every worker before RunDay unwinds; a
// worker still listed is only returning, so the check allows it a moment.
func TestRunDayRaisesSitePanic(t *testing.T) {
	sites, cfgs := soloSites(3)
	sites[1].Manager = faultyManager{Manager: sites[1].Manager, at: 10 * time.Hour}
	c, err := fleet.New(fleet.Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	var got any
	func() {
		defer func() { got = recover() }()
		c.RunDay(cfgs)
	}()
	if got == nil {
		t.Fatal("RunDay returned normally; want the site manager's panic")
	}
	if msg := fmt.Sprint(got); !strings.Contains(msg, "site manager fault at 10h0m0s") {
		t.Errorf("recovered %q, want the site manager's panic", msg)
	}
	for deadline := time.Now().Add(time.Second); poolWorkers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers outlived RunDay", poolWorkers())
		}
	}
}

// TestAbortPolledPerTickBeforeEachPeriod pins Config.Abort's contract:
// RunDay polls it once per tick, in tick order, one control period at a
// time before that period's ticks run, so an abort in mid-period leaves
// every site at the previous pass tick.
func TestAbortPolledPerTickBeforeEachPeriod(t *testing.T) {
	const stop = 10*time.Hour + 100*time.Second
	sites, cfgs := soloSites(2)
	var polled []time.Duration
	ticked := make([]time.Duration, len(sites)) // each site's last tick
	c, err := fleet.New(fleet.Config{
		Prepare: func(_ int, fl *sim.Fleet) {
			for i := range ticked {
				fl.System(i).SetTickHook(func(tod time.Duration) { ticked[i] = tod })
			}
		},
		Abort: func(_ int, tod time.Duration) bool {
			polled = append(polled, tod)
			return tod == stop
		},
	}, sites)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunDay(cfgs); err != fleet.ErrAborted {
		t.Fatalf("RunDay = %v, want ErrAborted", err)
	}
	for k, tod := range polled {
		if want := polled[0] + time.Duration(k)*time.Second; tod != want {
			t.Fatalf("poll %d at %v, want %v: one poll per tick, in order", k, tod, want)
		}
	}
	if last := polled[len(polled)-1]; last != stop {
		t.Errorf("last poll at %v, want %v", last, stop)
	}
	for i, tod := range ticked {
		if tod != 10*time.Hour {
			t.Errorf("site %d last ticked at %v, want 10h0m0s: no tick of the aborted period may run", i, tod)
		}
	}
}
