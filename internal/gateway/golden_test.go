package gateway

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// exactPlant is SimPlant with every State answer checked against a live
// recomputation that bypasses the memo: the manager's mode, and the
// index-order mean of EstimatedSoC over the units Quarantined leaves in,
// equal bit for bit. checkHint does the same for the gateway's hint memo.
type exactPlant struct {
	SimPlant
	t *testing.T
}

func (p exactPlant) State(now time.Duration) State {
	st := p.SimPlant.State(now)
	var sum float64
	n := 0
	for i, q := range p.Mgr.Quarantined() {
		if !q {
			sum += p.Sys.EstimatedSoC(i)
			n++
		}
	}
	soc := 0.0
	if n > 0 {
		soc = sum / float64(n)
	}
	if st.Mode != p.Mgr.Mode() || math.Float64bits(st.SoC) != math.Float64bits(soc) {
		p.t.Fatalf("State(%v) = %+v, recomputed mode %v SoC %v", now, st, p.Mgr.Mode(), soc)
	}
	return st
}

// checkHint re-walks the forecast for an outcome shed with a forecast hint
// (by mode or by SoC) at sim time now, without the gateway's memo, and
// fails on any difference.
func (p exactPlant) checkHint(now time.Duration, out Outcome) {
	if out.Decision != Shed || (out.Reason != ShedMode && out.Reason != ShedSoC) {
		return
	}
	if want := walkRetry(p.SimPlant, now); out.RetryAfter != want {
		p.t.Fatalf("%v request shed (%v) at %v with hint %v, a fresh walk gives %v",
			out.Class, out.Reason, now, out.RetryAfter, want)
	}
}

// TestOfferOutcomesGolden pins admission bit for bit over live plants: the
// load harness's sunny and storm days (DefaultLoadConfig(2015), two sites
// each) at its saturating 40 req/s, replayed through SimPlant. Every
// Offer's Outcome is folded into an FNV-1a hash with %#v, which prints the
// retry-after hint and the SoC snapshot at full precision, and so is each
// gateway's final Stats after the drain, which covers the requests that
// resolved later in Advance. A moved hash means an admission decision, a
// hint, or the energy state a decision saw has changed.
//
// Offer n goes to site n%2 with class classMix[n%10], so n%10 names its
// lane. Outcomes are folded per lane as runs of equal values — requests of
// one class at one site within a tick mostly share an outcome — which
// keeps every outcome in the hash at a fraction of the formatting cost.
//
// The same replay proves the admission memos exact: every State answer
// goes through exactPlant, and so does every forecast hint an Offer
// returns. (A hint that re-triage or the drain gives an Offer-path request
// reaches no caller; it comes from the same memo.)
func TestOfferOutcomesGolden(t *testing.T) {
	if raceEnabled {
		// One goroutine replays two full days of 40 req/s; under the race
		// detector that takes minutes and checks nothing the gateway's
		// concurrent tests do not. The pin runs in every plain test run.
		t.Skip("full-day single-goroutine replay is too slow under -race")
	}
	const want uint64 = 0xb0b5d9b7a019cf67
	const qps = 40
	const lanes = len(classMix)

	cfg := DefaultLoadConfig(2015)
	cfg.Gateway.BaseQPS = 15
	h := fnv.New64a()
	offers := 0
	for _, reg := range cfg.Regimes {
		fl, mgrs, err := loadFleet(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		gws := make([]*Gateway, cfg.Sites)
		plants := make([]exactPlant, cfg.Sites)
		for i := range gws {
			plants[i] = exactPlant{SimPlant: SimPlant{Sys: fl.System(i), Mgr: mgrs[i]}, t: t}
			gws[i] = New(cfg.Gateway, plants[i])
		}
		var last [lanes]Outcome
		var runs [lanes]int
		flush := func(k int) {
			if runs[k] > 0 {
				fmt.Fprintf(h, "%s lane %d %dx %#v\n", reg.Name, k, runs[k], last[k])
			}
		}
		lo, hi := fl.Bounds()
		step := fl.Step()
		var acc float64
		n := 0
		for tod := lo; tod < hi; tod += step {
			fl.Tick(tod)
			for _, gw := range gws {
				gw.Advance(tod)
			}
			for acc += qps * step.Seconds(); acc >= 1; acc-- {
				k := n % lanes
				out := gws[n%cfg.Sites].Offer(tod, classMix[k])
				plants[n%cfg.Sites].checkHint(tod, out)
				if runs[k] > 0 && out == last[k] {
					runs[k]++
				} else {
					flush(k)
					last[k], runs[k] = out, 1
				}
				n++
			}
		}
		for k := range runs {
			flush(k)
		}
		fl.Finish()
		for i, gw := range gws {
			gw.Drain(hi)
			fmt.Fprintf(h, "%s site %d %#v\n", reg.Name, i, gw.Stats())
		}
		offers += n
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("%d offers hash to %#x, want %#x", offers, got, want)
	}
}
