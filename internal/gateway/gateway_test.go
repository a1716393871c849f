package gateway

import (
	"sync"
	"testing"
	"time"

	"insure/internal/core"
)

// fakePlant is a hand-steered energy state for admission tests.
type fakePlant struct {
	mu        sync.Mutex
	mode      core.OpMode
	soc       float64
	recoverAt time.Duration // forecast reaches recovery supply at this sim time
	gen       uint64        // moves with recoverAt, after construction
}

func (p *fakePlant) set(mode core.OpMode, soc float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode, p.soc = mode, soc
}

// recoverFrom moves the forecast's recovery time, and with it the
// forecast generation.
func (p *fakePlant) recoverFrom(at time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recoverAt = at
	p.gen++
}

func (p *fakePlant) State(now time.Duration) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return State{Mode: p.mode, SoC: p.soc, Gen: p.gen}
}

func (p *fakePlant) ForecastW(at time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recoverAt > 0 && at >= p.recoverAt {
		return 1000
	}
	return 0
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BaseQPS = 1
	cfg.Burst = 1
	return cfg
}

// checkBalance asserts the accounting identity: every request is admitted,
// shed, or still queued — and nothing was dropped after admission.
func checkBalance(t *testing.T, st Stats) {
	t.Helper()
	admitted, shed := 0, 0
	for c := Class(0); c < NumClasses; c++ {
		admitted += st.Admitted[c]
		shed += st.Shed[c]
	}
	if got := admitted + shed + st.QueueDepth; got != st.Requests {
		t.Fatalf("accounting leak: admitted %d + shed %d + queued %d = %d, want %d requests",
			admitted, shed, st.QueueDepth, got, st.Requests)
	}
	if st.AdmittedDropped != 0 {
		t.Fatalf("admitted-then-dropped invariant violated: %d", st.AdmittedDropped)
	}
}

func TestLadderSheddingByClass(t *testing.T) {
	cases := []struct {
		mode core.OpMode
		want [NumClasses]bool // critical, standard, besteffort
	}{
		{core.ModeNormal, [NumClasses]bool{true, true, true}},
		{core.ModeConservative, [NumClasses]bool{true, true, false}},
		{core.ModeSurvival, [NumClasses]bool{true, false, false}},
		{core.ModeBlackstart, [NumClasses]bool{true, false, false}},
		{core.ModeBlackout, [NumClasses]bool{false, false, false}},
	}
	for _, tc := range cases {
		for c := Class(0); c < NumClasses; c++ {
			if got := servedIn(tc.mode, c); got != tc.want[c] {
				t.Errorf("servedIn(%v, %v) = %v, want %v", tc.mode, c, got, tc.want[c])
			}
		}
	}
}

func TestAdmitServesImmediatelyWithTokens(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	out, ticket := gw.Admit(0, Standard)
	if out.Decision != Served || ticket != nil {
		t.Fatalf("want immediate serve, got %v (ticket %v)", out.Decision, ticket)
	}
	if out.LatencyMs <= 0 || out.WaitMs != 0 {
		t.Fatalf("immediate serve latency %.1f wait %.1f", out.LatencyMs, out.WaitMs)
	}
	if out.EnergyWh <= 0 || out.CostUSD <= 0 {
		t.Fatalf("served request must be metered: %.6f Wh $%.8f", out.EnergyWh, out.CostUSD)
	}
	checkBalance(t, gw.Stats())
}

func TestDegradedResponsesInSurvival(t *testing.T) {
	plant := &fakePlant{mode: core.ModeSurvival, soc: 0.30}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	out, _ := gw.Admit(0, Critical)
	if out.Decision != Served || !out.Degraded {
		t.Fatalf("survival critical: want served degraded, got %v degraded=%v", out.Decision, out.Degraded)
	}
	full, _ := New(testConfig(), &fakePlant{mode: core.ModeNormal, soc: 0.8}).Admit(0, Critical)
	if out.EnergyWh >= full.EnergyWh {
		t.Fatalf("degraded response must cost less energy: %.6f vs %.6f Wh", out.EnergyWh, full.EnergyWh)
	}
}

func TestShedByModeWithForecastRetry(t *testing.T) {
	plant := &fakePlant{mode: core.ModeSurvival, soc: 0.30, recoverAt: 90 * time.Minute}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	out, _ := gw.Admit(0, Standard)
	if out.Decision != Shed || out.Reason != ShedMode {
		t.Fatalf("survival standard: want shed(mode), got %v(%v)", out.Decision, out.Reason)
	}
	// The forecast first reaches recovery supply at 90m; the hint walks in
	// 5m steps so it lands on the first step at or past it.
	if out.RetryAfter < 85*time.Minute || out.RetryAfter > 95*time.Minute {
		t.Fatalf("retry-after %v, want ~90m from forecast", out.RetryAfter)
	}
	// No recovery inside the horizon: the hint is the whole horizon, also
	// for a second request at the same time, which the memo answers only
	// while the forecast generation holds.
	plant.recoverFrom(0)
	for _, now := range []time.Duration{0, time.Second} {
		out2, _ := gw.Admit(now, Standard)
		if out2.RetryAfter != retryHorizon {
			t.Fatalf("unrecoverable forecast at %v: retry %v, want horizon %v", now, out2.RetryAfter, retryHorizon)
		}
	}
}

func TestBestEffortSoCGate(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.40, recoverAt: time.Hour}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	out, _ := gw.Admit(0, BestEffort)
	if out.Decision != Shed || out.Reason != ShedSoC {
		t.Fatalf("besteffort at SoC 0.40: want shed(soc), got %v(%v)", out.Decision, out.Reason)
	}
	// Critical is not SoC-gated in Normal.
	out, _ = gw.Admit(0, Critical)
	if out.Decision != Served {
		t.Fatalf("critical at SoC 0.40 in Normal: want served, got %v", out.Decision)
	}
}

func TestQueueThenDispatch(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(testConfig(), plant) // 1 QPS, burst 1
	gw.Advance(0)
	if out, _ := gw.Admit(0, Standard); out.Decision != Served {
		t.Fatalf("first request: want served, got %v", out.Decision)
	}
	out, ticket := gw.Admit(0, Standard)
	if out.Decision != Queued || ticket == nil {
		t.Fatalf("second request: want queued with ticket, got %v", out.Decision)
	}
	gw.Advance(2 * time.Second) // refills 2 tokens; dispatch serves the waiter
	select {
	case final := <-ticket.C:
		if final.Decision != Served {
			t.Fatalf("queued request: want served after refill, got %v(%v)", final.Decision, final.Reason)
		}
		if final.WaitMs != 2000 {
			t.Fatalf("queued wait %.0f ms, want 2000", final.WaitMs)
		}
	default:
		t.Fatal("ticket did not resolve after Advance")
	}
	checkBalance(t, gw.Stats())
}

func TestCapacityShedWhenQueueFull(t *testing.T) {
	cfg := testConfig()
	// Fast enough that a full standard queue still starts inside the
	// class deadline: the shed below is the depth bound, not the wait.
	cfg.BaseQPS = 100
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(cfg, plant)
	gw.Advance(0)
	gw.Admit(0, Standard) // served, token gone
	for i := 0; i < policies[Standard].maxQueue; i++ {
		if out, _ := gw.Admit(0, Standard); out.Decision != Queued {
			t.Fatalf("request %d of a %d-deep queue: want queued, got %v(%v)",
				i, policies[Standard].maxQueue, out.Decision, out.Reason)
		}
	}
	out, _ := gw.Admit(0, Standard)
	if out.Decision != Shed || out.Reason != ShedCapacity {
		t.Fatalf("queue full: want shed(capacity), got %v(%v)", out.Decision, out.Reason)
	}
	if out.RetryAfter < minRetry {
		t.Fatalf("capacity shed retry %v below minRetry %v", out.RetryAfter, minRetry)
	}
	checkBalance(t, gw.Stats())
}

func TestDeadlineExpiry(t *testing.T) {
	cfg := testConfig()
	// At SoC 0.8 a 0.25 QPS plant starts one waiter in 4 s, inside the
	// 5 s class deadline, so the second request queues.
	cfg.BaseQPS = 0.25
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(cfg, plant)
	gw.Advance(0)
	gw.Admit(0, Standard) // served
	out, ticket := gw.Admit(0, Standard)
	if out.Decision != Queued {
		t.Fatalf("want queued, got %v", out.Decision)
	}
	// The buffer collapses while the request waits: the SoC brake holds
	// capacity at its 30% floor, and at 0.075 QPS the token never refills
	// before the 5 s class deadline.
	plant.set(core.ModeNormal, 0.05)
	gw.Advance(6 * time.Second)
	select {
	case final := <-ticket.C:
		if final.Decision != Shed || final.Reason != ShedDeadline {
			t.Fatalf("deadline pass: want shed(deadline), got %v(%v)", final.Decision, final.Reason)
		}
	default:
		t.Fatal("deadline-blown ticket did not resolve")
	}
	checkBalance(t, gw.Stats())
}

// TestRetriageOnMidFlightDowngrade is the ISSUE's rung-transition test:
// requests queued under Normal are re-triaged when the ladder downgrades
// mid-flight — the newly unservable classes are shed with retry hints,
// critical work keeps its place, and nothing is admitted-then-dropped.
func TestRetriageOnMidFlightDowngrade(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8, recoverAt: 2 * time.Hour}
	cfg := testConfig() // burst 1
	// Keep enough Survival capacity (12% of 8 QPS) that the queued critical
	// can dispatch before its deadline — this test is about re-triage, not
	// starvation.
	cfg.BaseQPS = 8
	gw := New(cfg, plant)
	gw.Advance(0)
	if out, _ := gw.Admit(0, Standard); out.Decision != Served {
		t.Fatalf("seed request: want served, got %v", out.Decision)
	}
	outC, tC := gw.Admit(0, Critical)
	outS, tS := gw.Admit(0, Standard)
	outB, tB := gw.Admit(0, BestEffort)
	for i, o := range []Outcome{outC, outS, outB} {
		if o.Decision != Queued {
			t.Fatalf("request %d: want queued, got %v", i, o.Decision)
		}
	}

	// Mid-flight downgrade straight past Conservative: the plant is now in
	// Survival, where only critical traffic is served. SoC stays above the
	// brake knee so the capacity derate doesn't mask the re-triage.
	plant.set(core.ModeSurvival, 0.50)
	gw.Advance(1500 * time.Millisecond)

	finalC := <-tC.C
	if finalC.Decision != Served {
		t.Fatalf("queued critical across downgrade: want served, got %v(%v)", finalC.Decision, finalC.Reason)
	}
	if !finalC.Degraded {
		t.Fatal("critical served under Survival must be degraded")
	}
	for name, tk := range map[string]*Ticket{"standard": tS, "besteffort": tB} {
		select {
		case final := <-tk.C:
			if final.Decision != Shed || final.Reason != ShedRetriage {
				t.Fatalf("queued %s across downgrade: want shed(retriage), got %v(%v)", name, final.Decision, final.Reason)
			}
			if final.RetryAfter <= 0 {
				t.Fatalf("retriaged %s needs a retry-after hint", name)
			}
		default:
			t.Fatalf("queued %s did not resolve across downgrade", name)
		}
	}
	st := gw.Stats()
	if st.ShedReason[ShedRetriage] != 2 {
		t.Fatalf("retriage sheds = %d, want 2", st.ShedReason[ShedRetriage])
	}
	checkBalance(t, st)

	// Upgrade back to Normal: no spurious shedding, new traffic flows.
	plant.set(core.ModeNormal, 0.8)
	gw.Advance(4 * time.Second)
	if out, _ := gw.Admit(4*time.Second, BestEffort); out.Decision != Served {
		t.Fatalf("after recovery: want served, got %v(%v)", out.Decision, out.Reason)
	}
	checkBalance(t, gw.Stats())
}

func TestBlackoutServesNothing(t *testing.T) {
	plant := &fakePlant{mode: core.ModeBlackout, soc: 0.1, recoverAt: 3 * time.Hour}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	for c := Class(0); c < NumClasses; c++ {
		out, _ := gw.Admit(0, c)
		if out.Decision != Shed || out.Reason != ShedMode {
			t.Fatalf("blackout %v: want shed(mode), got %v(%v)", c, out.Decision, out.Reason)
		}
	}
}

func TestDrainResolvesEveryTicket(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8}
	gw := New(testConfig(), plant)
	gw.Advance(0)
	gw.Admit(0, Standard) // served
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		out, tk := gw.Admit(0, Standard)
		if out.Decision != Queued {
			t.Fatalf("want queued, got %v", out.Decision)
		}
		tickets = append(tickets, tk)
	}
	gw.Drain(time.Second)
	for i, tk := range tickets {
		select {
		case final := <-tk.C:
			if final.Decision != Shed || final.Reason != ShedDrain {
				t.Fatalf("ticket %d: want shed(drain), got %v(%v)", i, final.Decision, final.Reason)
			}
		default:
			t.Fatalf("ticket %d unresolved after drain", i)
		}
	}
	st := gw.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
	checkBalance(t, st)
}

// TestModeChurnNeverDropsAdmitted hammers the gateway with offers while
// the ladder flaps every step, then checks the full accounting identity.
func TestModeChurnNeverDropsAdmitted(t *testing.T) {
	plant := &fakePlant{mode: core.ModeNormal, soc: 0.8, recoverAt: time.Hour}
	cfg := DefaultConfig()
	cfg.BaseQPS = 3
	cfg.Burst = 3
	gw := New(cfg, plant)
	ladder := []core.OpMode{
		core.ModeNormal, core.ModeConservative, core.ModeSurvival,
		core.ModeBlackout, core.ModeBlackstart, core.ModeNormal,
	}
	socs := []float64{0.8, 0.42, 0.31, 0.1, 0.35, 0.7}
	now := time.Duration(0)
	for step := 0; step < 600; step++ {
		i := step % len(ladder)
		plant.set(ladder[i], socs[i])
		gw.Advance(now)
		for k := 0; k < 5; k++ {
			gw.Offer(now, classMix[(step*5+k)%len(classMix)])
		}
		now += time.Second
	}
	gw.Drain(now)
	st := gw.Stats()
	if st.Requests != 3000 {
		t.Fatalf("requests %d, want 3000", st.Requests)
	}
	checkBalance(t, st)
	if st.Admitted[Critical] == 0 || st.Shed[BestEffort] == 0 {
		t.Fatalf("churn should both serve critical (%d) and shed best-effort (%d)",
			st.Admitted[Critical], st.Shed[BestEffort])
	}
}
