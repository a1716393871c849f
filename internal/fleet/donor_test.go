package fleet

import (
	"math/rand"
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/wan"
	"insure/internal/workload"
)

// idealNet is the donor fixtures' backhaul: the ideal link New defaults to
// when Config.WAN is nil.
func idealNet(t *testing.T, sites int) *wan.Network {
	t.Helper()
	net, err := wan.New(wan.Config{Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// stubSink is a minimal migratable sink for donor-selection tests.
type stubSink struct {
	pending  float64
	inFlight int
}

func (s *stubSink) Spec() workload.Spec                               { return workload.Spec{} }
func (s *stubSink) Tick(_, _ time.Duration, _ float64, _ int) float64 { return 0 }
func (s *stubSink) HasWork(time.Duration) bool                        { return false }
func (s *stubSink) ProcessedGB() float64                              { return 0 }
func (s *stubSink) DelayMinutes() float64                             { return 0 }
func (s *stubSink) PendingGB() float64                                { return s.pending }
func (s *stubSink) TakeJobs() []*workload.Job                         { return nil }
func (s *stubSink) Schedule(time.Duration, *workload.Job)             {}

// streamStub is a sink that is NOT migratable — the camera-site case.
type streamStub struct{}

func (streamStub) Spec() workload.Spec                               { return workload.Spec{} }
func (streamStub) Tick(_, _ time.Duration, _ float64, _ int) float64 { return 0 }
func (streamStub) HasWork(time.Duration) bool                        { return false }
func (streamStub) ProcessedGB() float64                              { return 0 }
func (streamStub) DelayMinutes() float64                             { return 0 }

// oldDonorScan is the pre-rank linear scan, kept verbatim as the oracle:
// the ranked donor walk must return the identical site for every (from,
// requireIdle) query on every reachable coordinator state.
func (c *Coordinator) oldDonorScan(from int, requireIdle bool) int {
	best, bestSoC := -1, 0.0
	for j := range c.sites {
		st := &c.sites[j]
		if j == from || st.dead || st.deadline || st.needsEvac() || st.mode != core.ModeNormal {
			continue
		}
		if _, ok := st.sink.(migratableSink); !ok {
			continue
		}
		if requireIdle {
			if st.pendingGB > 0 {
				continue
			}
			if fs, ok := st.sink.(interface{ InFlight() int }); ok && fs.InFlight() > 0 {
				continue
			}
		}
		if st.soc >= surplusSoC && st.soc > bestSoC {
			best, bestSoC = j, st.soc
		}
	}
	return best
}

// TestDonorRankMatchesLinearScan cross-checks the ranked donor walk
// against the old O(N) scan over thousands of randomized fleet states,
// deliberately including SoC ties, every filter combination, non-batch
// sinks, and live in-flight counts that change between donor calls within
// one "pass".
func TestDonorRankMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	modes := []core.OpMode{
		core.ModeNormal, core.ModeNormal, core.ModeNormal, // bias toward donors
		core.ModeConservative, core.ModeSurvival, core.ModeBlackout,
	}
	// Coarse SoC grid so exact ties occur often.
	socs := []float64{0.30, 0.45, 0.55, 0.60, 0.60, 0.70, 0.70, 0.90}

	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(12)
		c := &Coordinator{
			cfg:   Config{WAN: idealNet(t, n)},
			sites: make([]siteState, n),
		}
		for i := range c.sites {
			st := &c.sites[i]
			if rng.Intn(5) == 0 {
				st.sink = streamStub{}
			} else {
				st.sink = &stubSink{
					pending:  float64(rng.Intn(2)) * rng.Float64() * 10,
					inFlight: rng.Intn(3),
				}
			}
			st.dead = rng.Intn(8) == 0
			st.deadline = rng.Intn(6) == 0
			st.evacuate = rng.Intn(6) == 0
			st.mode = modes[rng.Intn(len(modes))]
			st.soc = socs[rng.Intn(len(socs))]
		}
		c.rebuildDonorRank(0)
		// Several queries against the same rank, as a real pass issues, with
		// in-flight churn between them (the one donor input that mutates
		// mid-pass and therefore must be read live).
		for q := 0; q < 2*n; q++ {
			from := rng.Intn(n)
			requireIdle := rng.Intn(2) == 0
			want := c.oldDonorScan(from, requireIdle)
			got := c.donor(from, requireIdle)
			if got != want {
				t.Fatalf("trial %d query %d: donor(%d, %v) = %d, want %d (sites %+v)",
					trial, q, from, requireIdle, got, want, c.sites)
			}
			if ss, ok := c.sites[rng.Intn(n)].sink.(*stubSink); ok && rng.Intn(3) == 0 {
				ss.inFlight = rng.Intn(3)
			}
		}
	}
}

// TestDonorRankTieBreaksToLowestIndex pins the tie-break rule explicitly:
// equal surplus SoC resolves to the lowest site index, matching the old
// scan's strict-greater comparison.
func TestDonorRankTieBreaksToLowestIndex(t *testing.T) {
	c := &Coordinator{
		cfg: Config{WAN: idealNet(t, 3)},
		sites: []siteState{
			{sink: &stubSink{}, mode: core.ModeNormal, soc: 0.70},
			{sink: &stubSink{}, mode: core.ModeNormal, soc: 0.80},
			{sink: &stubSink{}, mode: core.ModeNormal, soc: 0.80},
		},
	}
	c.rebuildDonorRank(0)
	if got := c.donor(0, false); got != 1 {
		t.Fatalf("tie at 0.80 must pick site 1, got %d", got)
	}
	// Excluding the winner falls through to the equal-SoC site, not the
	// lower one.
	if got := c.donor(1, false); got != 2 {
		t.Fatalf("with site 1 excluded, want site 2, got %d", got)
	}
}
