// Package gateway is the energy-aware serving plane: an admission
// controller and deadline-aware request queue for interactive traffic,
// driven by the plant's live energy state — state of charge, the
// conservative supply forecast, and the PR 5 survivability ladder
// (internal/core). The paper's workload model is batch-dominated; this is
// the request path the ROADMAP's "millions of users" story needs, applying
// the same load-side knobs (§3.4 duty cycling, VM scaling) at per-request
// granularity:
//
//   - Normal serves every class at full capacity.
//   - Conservative sheds the best-effort class and derates capacity.
//   - Survival serves only critical requests, with degraded responses.
//   - Blackout serves nothing (and /healthz reports draining).
//
// Every admitted request is metered through cost.ServingTariff — the
// energy price of a request, in the same dollars as the paper's TCO
// models — and every rejection carries an explicit retry-after hint
// derived from the supply forecast, so clients back off until the sun is
// actually expected back.
//
// Admission contract: a request is *admitted* only at the moment service
// begins. Queued requests hold no admission promise; on a ladder downgrade
// the queue is re-triaged and newly unservable classes are shed with
// retry-after hints. A request that has been admitted is never dropped —
// the AdmittedDropped counter exists to prove that invariant stays zero.
package gateway

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"insure/internal/core"
	"insure/internal/cost"
)

// Class is a request priority class.
type Class uint8

const (
	// Critical is must-serve traffic (health probes, alarms, operator
	// queries). Served on every rung that has any capacity at all.
	Critical Class = iota
	// Standard is ordinary interactive traffic. Shed in Survival.
	Standard
	// BestEffort is deferrable traffic (prefetch, analytics, previews).
	// First to shed: gone in Conservative, and gated on SoC even in Normal.
	BestEffort
	// NumClasses bounds per-class arrays.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Standard:
		return "standard"
	case BestEffort:
		return "besteffort"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass parses a class name (as used in the HTTP query parameter).
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "critical", "crit":
		return Critical, nil
	case "standard", "std", "":
		return Standard, nil
	case "besteffort", "best-effort", "be":
		return BestEffort, nil
	}
	return Standard, fmt.Errorf("gateway: unknown request class %q", s)
}

// Decision is the admission controller's verdict on one request.
type Decision uint8

const (
	// Served: the request was admitted and service completed (the only
	// decision that consumes plant energy).
	Served Decision = iota
	// Queued: the request is waiting for capacity. Not yet admitted — its
	// final outcome (Served or Shed) arrives via the Ticket.
	Queued
	// Shed: the request was rejected with a retry-after hint.
	Shed
)

func (d Decision) String() string {
	switch d {
	case Served:
		return "served"
	case Queued:
		return "queued"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// ShedReason says why a request was rejected.
type ShedReason uint8

const (
	ShedNone ShedReason = iota
	// ShedMode: the current ladder rung does not serve this class.
	ShedMode
	// ShedSoC: the buffer is below the class's admission floor.
	ShedSoC
	// ShedCapacity: the plant is serving this class, but the queue is full
	// or the projected wait exceeds the class deadline.
	ShedCapacity
	// ShedDeadline: the request was queued but its deadline passed before
	// capacity arrived.
	ShedDeadline
	// ShedRetriage: the request was queued, then a ladder downgrade made
	// its class unservable; the queue re-triage rejected it.
	ShedRetriage
	// ShedDrain: the gateway was drained (shutdown) with the request still
	// queued.
	ShedDrain
	numShedReasons
)

func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedMode:
		return "mode"
	case ShedSoC:
		return "soc"
	case ShedCapacity:
		return "capacity"
	case ShedDeadline:
		return "deadline"
	case ShedRetriage:
		return "retriage"
	case ShedDrain:
		return "drain"
	default:
		return fmt.Sprintf("ShedReason(%d)", int(r))
	}
}

// Outcome is the final verdict delivered for one request.
type Outcome struct {
	Decision Decision
	Class    Class
	Reason   ShedReason // Shed only

	// Degraded marks a response served under an emergency rung (Survival /
	// Blackstart): smaller payload, lower energy.
	Degraded bool

	// WaitMs is the simulated queueing delay; LatencyMs adds the class's
	// service time. Both are simulation time, not wall time.
	WaitMs    float64
	LatencyMs float64

	// RetryAfter is the forecast-derived back-off hint (Shed only).
	RetryAfter time.Duration

	// EnergyWh and CostUSD are the request's metered energy account
	// (Served only).
	EnergyWh float64
	CostUSD  float64

	// Mode and SoC snapshot the energy state the decision was taken under.
	Mode core.OpMode
	SoC  float64
}

// Ticket is the handle for a queued request: exactly one Outcome (Served
// or Shed) is delivered on C.
type Ticket struct {
	C <-chan Outcome
}

// State is the live energy picture the gateway admits against.
type State struct {
	Mode core.OpMode
	SoC  float64
	// Gen is the plant's forecast generation: it must move whenever
	// ForecastW could answer differently. The gateway memoizes its
	// retry-after hint on (now, Gen).
	Gen uint64
}

// Plant supplies the gateway's energy state and forecast. Implementations
// must be safe for concurrent use with the simulation when the gateway is
// driven from multiple goroutines (the live daemon serialises plant ticks
// and gateway calls behind one mutex; see cmd/insure-gateway).
type Plant interface {
	// State reports the energy state at sim time now, and the generation
	// of the forecast ForecastW answers from.
	State(now time.Duration) State
	// ForecastW is the conservative renewable supply forecast at sim time
	// at, in watts — the curve retry-after hints walk.
	ForecastW(at time.Duration) float64
}

// classPolicy tunes one request class.
type classPolicy struct {
	// deadline is the maximum queueing delay before service must begin;
	// requests that cannot start by then are shed, never silently late.
	deadline time.Duration
	// serviceTime is the simulated service duration.
	serviceTime time.Duration
	// respKB sizes the response for energy pricing; degradedKB is the
	// reduced payload served under emergency rungs.
	respKB     float64
	degradedKB float64
	// maxQueue bounds the class's queue depth.
	maxQueue int
	// minSoC gates admission on the buffer even when the rung would serve
	// the class (0 disables). This is the direct SoC knob; the ladder is
	// the indirect one.
	minSoC float64
}

// policies holds the fixed per-class policies.
var policies = [NumClasses]classPolicy{
	Critical:   {deadline: 2 * time.Second, serviceTime: 20 * time.Millisecond, respKB: 2, degradedKB: 0.5, maxQueue: 64},
	Standard:   {deadline: 5 * time.Second, serviceTime: 60 * time.Millisecond, respKB: 16, degradedKB: 2, maxQueue: 128},
	BestEffort: {deadline: 15 * time.Second, serviceTime: 120 * time.Millisecond, respKB: 64, degradedKB: 8, maxQueue: 256, minSoC: 0.50},
}

// tariff prices each served request's energy.
var tariff = cost.DefaultServingTariff()

// The serving plane's fixed tuning.
const (
	// conservativeCapFrac and survivalCapFrac derate capacity on the
	// degraded rungs (Blackout is always zero; Blackstart uses the
	// Survival fraction while the cluster reboots).
	conservativeCapFrac = 0.6
	survivalCapFrac     = 0.12

	// brakeHighSoC/brakeLowSoC/brakeFloorFrac derate capacity linearly as
	// the buffer drains: full capacity at or above brakeHighSoC, falling
	// to brakeFloorFrac of it at brakeLowSoC. This couples admission to
	// SoC directly, ahead of (and independent of) the ladder.
	brakeHighSoC   = 0.45
	brakeLowSoC    = 0.30
	brakeFloorFrac = 0.30

	// recoveryW is the forecast supply at which shed traffic should come
	// back; retry-after hints are the time until the forecast first
	// reaches it. retryStep is the forecast walk's resolution.
	recoveryW    = 150
	retryStep    = 5 * time.Minute
	retryHorizon = 6 * time.Hour
	minRetry     = 30 * time.Second
)

// Config shapes a Gateway.
type Config struct {
	// BaseQPS is the full-cluster serving capacity at ModeNormal.
	BaseQPS float64
	// Burst is the token-bucket depth in requests. Zero means one second
	// of BaseQPS. DefaultConfig sets 25, one second of its own BaseQPS
	// only: a caller that raises BaseQPS on DefaultConfig keeps a
	// 25-request bucket.
	Burst float64

	// LatencySink, when set, receives every served request's latency in
	// simulated milliseconds (the load harness installs a percentile
	// recorder here). Called with the gateway lock held; keep it fast.
	LatencySink func(class Class, latencyMs float64)
}

// DefaultConfig returns the serving-plane tuning the load harness sweeps.
func DefaultConfig() Config {
	return Config{BaseQPS: 25, Burst: 25}
}

// normalized fills zero fields with defaults.
func (c Config) normalized() Config {
	if c.BaseQPS <= 0 {
		c.BaseQPS = DefaultConfig().BaseQPS
	}
	if c.Burst <= 0 {
		c.Burst = c.BaseQPS
	}
	return c
}

// servedIn reports whether the rung serves the class — the shedding ladder
// of the package comment.
func servedIn(mode core.OpMode, c Class) bool {
	switch mode {
	case core.ModeNormal:
		return true
	case core.ModeConservative:
		return c != BestEffort
	case core.ModeSurvival, core.ModeBlackstart:
		return c == Critical
	default: // ModeBlackout
		return false
	}
}

// degradedIn reports whether responses on the rung are degraded.
func degradedIn(mode core.OpMode) bool {
	return mode == core.ModeSurvival || mode == core.ModeBlackstart
}

// pending is one queued request.
type pending struct {
	class    Class
	arrived  time.Duration
	deadline time.Duration
	ch       chan Outcome // nil for Offer-path requests
	resolved bool
}

// fifo is a head-indexed queue of pending requests, held by value so that
// queueing a request allocates nothing once the backing array has grown to
// the queue's working depth.
type fifo struct {
	q    []pending
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }
func (f *fifo) front() *pending {
	return &f.q[f.head]
}
func (f *fifo) push(p pending) { f.q = append(f.q, p) }
func (f *fifo) pop() pending {
	p := f.q[f.head]
	f.q[f.head] = pending{}
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return p
}

// Stats is the gateway's cumulative accounting.
type Stats struct {
	Requests int // every Admit/Offer call
	Admitted [NumClasses]int
	Degraded int
	// QueuedEver counts requests that waited in the queue at some point
	// (admitted or not); QueueDepth is the instantaneous depth.
	QueuedEver [NumClasses]int
	QueueDepth int
	Shed       [NumClasses]int
	ShedReason [numShedReasons]int
	// AdmittedDropped counts requests dropped after admission. It is zero
	// by construction; tests and the load harness assert it stays so.
	AdmittedDropped int
	// Energy account (cost.ServingTariff): total metered energy and its
	// marginal dollar cost across every served request.
	EnergyWh float64
	CostUSD  float64
}

// Gateway is the serving plane for one plant. All methods are safe for
// concurrent use.
type Gateway struct {
	mu    sync.Mutex
	cfg   Config
	plant Plant

	now      time.Duration
	lastMode core.OpMode
	started  bool
	tokens   float64

	queues [NumClasses]fifo
	stats  Stats
	hint   hintMemo

	// tel, when set by AttachTelemetry, holds the latency buckets serve
	// fills; its collect hook reads them and stats when scraped.
	tel *gwTelemetry
}

// New builds a gateway over the plant's live energy state. The token
// bucket starts full, so a fresh gateway serves a burst immediately.
func New(cfg Config, plant Plant) *Gateway {
	cfg = cfg.normalized()
	return &Gateway{cfg: cfg, plant: plant, tokens: cfg.Burst}
}

// Stats returns a snapshot of the cumulative accounting.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Now returns the gateway's sim clock (the last Advance time).
func (g *Gateway) Now() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now
}

// capacityQPS is the serving rate the energy state funds right now:
// BaseQPS derated by the rung and braked linearly on SoC.
func (g *Gateway) capacityQPS(st State) float64 {
	var frac float64
	switch st.Mode {
	case core.ModeNormal:
		frac = 1
	case core.ModeConservative:
		frac = conservativeCapFrac
	case core.ModeSurvival, core.ModeBlackstart:
		frac = survivalCapFrac
	default: // ModeBlackout
		return 0
	}
	return g.cfg.BaseQPS * frac * socFactor(st.SoC)
}

// socFactor is the linear SoC brake: 1 at or above brakeHighSoC, falling
// to brakeFloorFrac at brakeLowSoC.
func socFactor(soc float64) float64 {
	// float64 variables, not constants: the constant expression
	// brakeHighSoC-brakeLowSoC folds exactly to 0.15, while the float64
	// subtraction the brake is defined by gives 0.15000000000000002.
	var hi, lo float64 = brakeHighSoC, brakeLowSoC
	if soc >= hi {
		return 1
	}
	if soc <= lo {
		return brakeFloorFrac
	}
	t := (soc - lo) / (hi - lo)
	return brakeFloorFrac + t*(1-brakeFloorFrac)
}

// hintMemo is retryAfter's last answer: hint d for sim time now at the
// plant's forecast generation gen. d is at least minRetry, so a zero d
// means there is none.
type hintMemo struct {
	now time.Duration
	gen uint64
	d   time.Duration
}

// retryAfter is walkRetry's back-off hint at sim time now, where gen is
// the forecast generation of the State the caller read. Every request shed
// in one tick asks at the same now, so the hint is memoized on (now, gen);
// gen moves whenever the forecast could answer differently, so a hit is
// bit-identical to walking again.
func (g *Gateway) retryAfter(now time.Duration, gen uint64) time.Duration {
	if h := g.hint; h.d != 0 && h.now == now && h.gen == gen {
		return h.d
	}
	d := walkRetry(g.plant, now)
	g.hint = hintMemo{now: now, gen: gen, d: d}
	return d
}

// walkRetry derives the back-off hint from p's supply forecast: the time
// until the conservative forecast first reaches recoveryW, clamped to
// [minRetry, retryHorizon]. When the forecast never recovers inside the
// horizon the hint is the full horizon — "come back tomorrow".
func walkRetry(p Plant, now time.Duration) time.Duration {
	for t := now + retryStep; t <= now+retryHorizon; t += retryStep {
		if p.ForecastW(t) >= recoveryW {
			d := t - now
			if d < minRetry {
				d = minRetry
			}
			return d
		}
	}
	return retryHorizon
}

// drainEstimate is the capacity-shed back-off: roughly how long the queue
// ahead of a new arrival needs to drain at the current rate.
func (g *Gateway) drainEstimate(ahead int, rate float64) time.Duration {
	if rate <= 0 {
		return retryHorizon
	}
	d := time.Duration(float64(ahead+1) / rate * float64(time.Second))
	if d < minRetry {
		d = minRetry
	}
	return d
}

// Advance moves the gateway's clock to sim time now: refills the token
// bucket at the energy-derated rate, re-triages the queue if the ladder
// moved, expires deadline-blown waiters, and dispatches queued requests
// into the freed capacity. The plant driver calls it once per tick, after
// the plant itself has stepped.
func (g *Gateway) Advance(now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.plant.State(now)
	if !g.started {
		g.started = true
		g.now = now
		g.lastMode = st.Mode
	}
	if dt := now - g.now; dt > 0 {
		g.tokens += g.capacityQPS(st) * dt.Seconds()
		if g.tokens > g.cfg.Burst {
			g.tokens = g.cfg.Burst
		}
	}
	g.now = now
	if st.Mode != g.lastMode {
		g.retriage(now, st)
		g.lastMode = st.Mode
	}
	g.expire(now, st)
	g.dispatch(now, st)
}

// retriage re-examines the whole queue after a ladder transition: requests
// whose class the new rung no longer serves are shed immediately with
// forecast retry-after hints. Queued requests were never admitted, so this
// sheds promises-not-yet-made — the AdmittedDropped invariant stays zero.
func (g *Gateway) retriage(now time.Duration, st State) {
	for c := Class(0); c < NumClasses; c++ {
		if servedIn(st.Mode, c) {
			continue
		}
		q := &g.queues[c]
		for q.len() > 0 {
			p := q.pop()
			g.shedPending(&p, now, st, ShedRetriage, g.retryAfter(now, st.Gen))
		}
	}
}

// expire sheds queued requests whose deadline passed before capacity
// arrived. Per-class queues are FIFO with uniform deadlines, so only the
// front can be expired.
func (g *Gateway) expire(now time.Duration, st State) {
	for c := Class(0); c < NumClasses; c++ {
		q := &g.queues[c]
		for q.len() > 0 && q.front().deadline < now {
			p := q.pop()
			g.shedPending(&p, now, st, ShedDeadline, g.drainEstimate(g.aheadOf(p.class), g.capacityQPS(st)))
		}
	}
}

// dispatch serves queued requests in class-priority order while tokens
// last. The moment a request is popped for service it is admitted.
func (g *Gateway) dispatch(now time.Duration, st State) {
	for c := Class(0); c < NumClasses; c++ {
		if !servedIn(st.Mode, c) {
			continue
		}
		q := &g.queues[c]
		for q.len() > 0 && g.tokens >= 1 {
			p := q.pop()
			g.tokens--
			g.serve(&p, now, st, now-p.arrived)
		}
	}
}

// aheadOf counts the queued requests that would be served before a new
// arrival of the given class (all classes at equal or higher priority).
func (g *Gateway) aheadOf(c Class) int {
	n := 0
	for i := Class(0); i <= c; i++ {
		n += g.queues[i].len()
	}
	return n
}

// Admit runs the admission decision for one request of the given class at
// sim time now. The returned Outcome is final for Served and Shed; for
// Queued the Ticket delivers exactly one final Outcome later (from an
// Advance call). Offer is the ticketless variant for bulk replay.
func (g *Gateway) Admit(now time.Duration, class Class) (Outcome, *Ticket) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out, ch := g.admit(now, class, true)
	if ch == nil {
		return out, nil
	}
	return out, &Ticket{C: ch}
}

// Offer is Admit without a ticket: queued requests resolve internally
// (stats, telemetry, latency sink) with no per-request channel. The load
// harness replays millions of requests through this path.
func (g *Gateway) Offer(now time.Duration, class Class) Outcome {
	g.mu.Lock()
	defer g.mu.Unlock()
	out, _ := g.admit(now, class, false)
	return out
}

// admit decides one request. A ticketed request that queues gets its
// outcome channel, which admit returns; every other request gets nil.
func (g *Gateway) admit(now time.Duration, class Class, ticketed bool) (Outcome, chan Outcome) {
	if now < g.now {
		// Clock discipline: arrivals never move time backwards; a racing
		// admit between ticks stamps at the gateway clock.
		now = g.now
	}
	g.stats.Requests++
	st := g.plant.State(now)
	pol := &policies[class]

	if !servedIn(st.Mode, class) {
		return g.shedNow(class, now, st, ShedMode, g.retryAfter(now, st.Gen)), nil
	}
	if pol.minSoC > 0 && st.SoC < pol.minSoC {
		return g.shedNow(class, now, st, ShedSoC, g.retryAfter(now, st.Gen)), nil
	}

	rate := g.capacityQPS(st)
	// Serve immediately when a token is free and nobody of equal-or-higher
	// priority is already waiting (FIFO fairness within the class).
	if g.tokens >= 1 && g.aheadOf(class) == 0 {
		g.tokens--
		p := pending{class: class, arrived: now}
		return g.serve(&p, now, st, 0), nil
	}

	// Deadline-aware queueing: refuse up front what cannot possibly start
	// in time, instead of queueing it to die — the queue never holds work
	// the plant has already decided not to do.
	ahead := g.aheadOf(class)
	projWait := time.Duration(float64(ahead+1) / max(rate, 1e-9) * float64(time.Second))
	if rate <= 0 || g.queues[class].len() >= pol.maxQueue || projWait > pol.deadline {
		return g.shedNow(class, now, st, ShedCapacity, g.drainEstimate(ahead, rate)), nil
	}

	p := pending{class: class, arrived: now, deadline: now + pol.deadline}
	if ticketed {
		p.ch = make(chan Outcome, 1)
	}
	g.queues[class].push(p)
	g.stats.QueuedEver[class]++
	g.stats.QueueDepth++
	return Outcome{Decision: Queued, Class: class, Mode: st.Mode, SoC: st.SoC}, p.ch
}

// serve admits p and completes its service: accounting, energy metering,
// latency recording, and ticket delivery. waitDur is the queueing delay.
func (g *Gateway) serve(p *pending, now time.Duration, st State, waitDur time.Duration) Outcome {
	if p.resolved {
		// A request must resolve exactly once; a second resolution would be
		// an admitted-then-dropped (or double-served) bug.
		g.stats.AdmittedDropped++
		return Outcome{}
	}
	p.resolved = true
	pol := &policies[p.class]
	degraded := degradedIn(st.Mode)
	kb := pol.respKB
	if degraded {
		kb = pol.degradedKB
	}
	wh := tariff.RequestWh(kb)
	usd := float64(tariff.RequestCost(kb))
	latency := waitDur + pol.serviceTime

	g.stats.Admitted[p.class]++
	if degraded {
		g.stats.Degraded++
	}
	g.stats.EnergyWh += wh
	g.stats.CostUSD += usd
	if waitDur > 0 || p.deadline != 0 {
		// This request came off the queue.
		g.stats.QueueDepth--
	}
	out := Outcome{
		Decision:  Served,
		Class:     p.class,
		Degraded:  degraded,
		WaitMs:    float64(waitDur) / float64(time.Millisecond),
		LatencyMs: float64(latency) / float64(time.Millisecond),
		EnergyWh:  wh,
		CostUSD:   usd,
		Mode:      st.Mode,
		SoC:       st.SoC,
	}
	if g.tel != nil {
		g.tel.lat[p.class].Observe(float64(latency) / float64(time.Second))
	}
	if g.cfg.LatencySink != nil {
		g.cfg.LatencySink(p.class, out.LatencyMs)
	}
	if p.ch != nil {
		p.ch <- out
	}
	return out
}

// shedNow rejects a request at admission time.
func (g *Gateway) shedNow(class Class, now time.Duration, st State, why ShedReason, retry time.Duration) Outcome {
	g.stats.Shed[class]++
	g.stats.ShedReason[why]++
	return Outcome{
		Decision:   Shed,
		Class:      class,
		Reason:     why,
		RetryAfter: retry,
		Mode:       st.Mode,
		SoC:        st.SoC,
	}
}

// shedPending rejects a request that was queued (re-triage, deadline,
// drain). It was never admitted.
func (g *Gateway) shedPending(p *pending, now time.Duration, st State, why ShedReason, retry time.Duration) {
	if p.resolved {
		g.stats.AdmittedDropped++
		return
	}
	p.resolved = true
	g.stats.QueueDepth--
	g.stats.Shed[p.class]++
	g.stats.ShedReason[why]++
	if p.ch != nil {
		p.ch <- Outcome{
			Decision:   Shed,
			Class:      p.class,
			Reason:     why,
			RetryAfter: retry,
			Mode:       st.Mode,
			SoC:        st.SoC,
		}
	}
}

// Drain sheds every queued request (gateway shutdown, or end of a replay).
// Queued requests were never admitted, so draining preserves the
// AdmittedDropped invariant.
func (g *Gateway) Drain(now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.plant.State(now)
	for c := Class(0); c < NumClasses; c++ {
		q := &g.queues[c]
		for q.len() > 0 {
			p := q.pop()
			g.shedPending(&p, now, st, ShedDrain, g.retryAfter(now, st.Gen))
		}
	}
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
