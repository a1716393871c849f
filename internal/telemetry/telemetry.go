// Package telemetry is the live observability plane of the reproduction:
// a concurrency-safe registry of counters, gauges, and fixed-bucket
// histograms that the plant, the control plane, and the daemons publish
// into while running — the counterpart of the prototype's management
// platform, which "collects various log data automatically" (§5) and
// feeds §6.2's longevity analysis.
//
// Instruments are read when they are scraped, not written on every change.
// A component whose state moves on every tick or request installs a collect
// hook (OnCollect) that copies that state into its instruments; Snapshot
// and WritePrometheus (and so WriteJSON and /metrics) run every hook first,
// one at a time, each under the lock that guards the state it reads: its
// own, or the registry's collect lock (SetCollectLock), which a program
// that scrapes while it ticks sets to the lock it ticks under. A hook installed
// under a name already in use replaces it. Rare events still push: their
// counters advance at the event site with one atomic add.
//
// The push operations (Counter.Inc/Add/SetTotal, Gauge.Set,
// Histogram.Observe) are atomic and never allocate, so they may live
// inside the zero-alloc simulation tick (see DESIGN.md "Performance" and
// the alloc regression tests). Exposition — Prometheus text format over
// HTTP, or a JSON snapshot embedded next to BENCH.json — is the slow path
// and may allocate freely. Every daemon HTTP listener is a Server, started
// by Listen and stopped by Shutdown.
//
// Correlation model: the registry carries a monotonic simulation clock
// (SetClock), advanced by whoever drives the plant. Logbook events are
// stamped with the same clock, so a quarantine line in the logbook is
// directly correlatable with the counter increment observed at the same
// sim-time in a snapshot or scrape.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// metric is the registry's view of an instrument.
type metric interface {
	// meta returns the metric's identity: base name, exposition type
	// ("counter", "gauge", "histogram"), help string, and labels.
	meta() *metricMeta
}

type metricMeta struct {
	name   string
	help   string
	typ    string
	labels []Label
	id     string // name plus rendered label set, unique per registry
}

// labelSuffix renders {k="v",...} or "" for an unlabelled metric. Values
// are escaped per the Prometheus text exposition rules.
func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// The Prometheus text-format escapes: label values escape backslash,
// double quote and newline; HELP text escapes backslash and newline.
var (
	labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper       = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabelValue(v string) string { return labelValueEscaper.Replace(v) }

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func newMeta(name, typ, help string, labels []Label) *metricMeta {
	return &metricMeta{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]Label(nil), labels...),
		id:     name + labelSuffix(labels),
	}
}

// Counter is a monotonically increasing count. Inc and Add are lock-free
// and allocation-free.
type Counter struct {
	m metricMeta
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// SetTotal raises the count to total, a lifetime total its owner keeps.
// A total below the current count is ignored: counters only go up.
func (c *Counter) SetTotal(total int64) {
	for {
		old := c.v.Load()
		if total <= old || c.v.CompareAndSwap(old, total) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) meta() *metricMeta { return &c.m }

// Gauge is an instantaneous value. Set is a single atomic store.
type Gauge struct {
	m metricMeta
	v atomic.Uint64 // math.Float64bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *Gauge) meta() *metricMeta { return &g.m }

// FuncGauge reads its value from a callback at exposition time — the
// bridge for components that already keep their own atomic counters
// (e.g. the Modbus client's retry/timeout/reconnect counts).
type FuncGauge struct {
	m  metricMeta
	fn func() float64
}

// Value invokes the callback.
func (g *FuncGauge) Value() float64 { return g.fn() }

func (g *FuncGauge) meta() *metricMeta { return &g.m }

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free
// and allocation-free: a linear scan over the (small, fixed) bucket list
// plus three atomic updates.
//
// Snapshot-consistency contract: Observe publishes the bucket and sum
// first and the total count last; readers that load the count first and
// the buckets afterwards therefore always see bucketTotal >= count.
type Histogram struct {
	m      metricMeta
	uppers []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // math.Float64bits, CAS-accumulated
	count  atomic.Int64
}

// bucketOf is the bucket search: the index of the first upper bound at or
// above v, or len(uppers) for the +Inf bucket.
func bucketOf(uppers []float64, v float64) int {
	for i, ub := range uppers {
		if v <= ub {
			return i
		}
	}
	return len(uppers)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if i := bucketOf(h.uppers, v); i < len(h.uppers) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Buckets is a histogram's plain twin, for an owner that observes under a
// lock it already holds: Observe makes the same bucket search and the same
// float additions as Histogram.Observe, with no atomics, and a collect hook
// running under that lock publishes it with Histogram.Store.
type Buckets struct {
	uppers []float64
	counts []int64 // one per upper bound, then +Inf
	sum    float64
	count  int64
}

// Buckets returns an empty twin with h's bucket bounds.
func (h *Histogram) Buckets() Buckets {
	return Buckets{uppers: h.uppers, counts: make([]int64, len(h.uppers)+1)}
}

// Observe records one value.
func (b *Buckets) Observe(v float64) {
	b.counts[bucketOf(b.uppers, v)]++
	b.sum += v
	b.count++
}

// Store sets h to b, which must come from h.Buckets. Like Observe it
// publishes the buckets and the sum first and the count last, so stores
// made in order under one lock keep the snapshot-consistency contract.
func (h *Histogram) Store(b *Buckets) {
	for i := range h.counts {
		h.counts[i].Store(b.counts[i])
	}
	h.inf.Store(b.counts[len(h.uppers)])
	h.sum.Store(math.Float64bits(b.sum))
	h.count.Store(b.count)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) meta() *metricMeta { return &h.m }

// buckets returns the cumulative per-bucket counts including +Inf,
// loading the total count first (see the consistency contract above).
func (h *Histogram) snapshotCounts() (count int64, cumulative []int64) {
	count = h.count.Load()
	cumulative = make([]int64, len(h.uppers)+1)
	var run int64
	for i := range h.uppers {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	run += h.inf.Load()
	cumulative[len(h.uppers)] = run
	return count, cumulative
}

// DefTimeBuckets are the default duration buckets (seconds), spanning a
// PLC scan (~10 ms nominal) down to microseconds and up to multi-second
// Modbus timeouts.
var DefTimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// HealthCheck reports one component's liveness. A nil error means healthy;
// the error text is surfaced in the /healthz body otherwise.
type HealthCheck struct {
	Name  string
	Check func() error
}

// collectHook is one OnCollect registration.
type collectHook struct {
	name string
	lock sync.Locker // nil: the registry's collect lock
	fn   func()
}

// Registry holds the instruments of one process. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu    sync.RWMutex // guards byID, order, hooks and collectLock
	byID  map[string]metric
	order []metric // registration order; exposition sorts by name/id
	clock atomic.Int64

	// Collect hooks (OnCollect) and the lock for hooks without their own
	// (SetCollectLock).
	hooks       []collectHook
	collectLock sync.Locker

	healthM sync.RWMutex
	health  []HealthCheck

	// Operating-mode surface (SetOpMode): the plant's survivability rung,
	// mirrored into /healthz so load balancers can see a site degrade and
	// drain a dying one instead of routing into a blackout.
	opMu       sync.RWMutex
	opMode     string
	opDraining bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]metric{}}
}

// SetClock publishes the current simulation time. The plant drives it
// once per tick; everything that scrapes or snapshots the registry reads
// the same clock, which is what makes logbook/telemetry correlation work.
func (r *Registry) SetClock(t time.Duration) { r.clock.Store(int64(t)) }

// Clock returns the last published simulation time.
func (r *Registry) Clock() time.Duration { return time.Duration(r.clock.Load()) }

// register installs m or returns the already-registered metric with the
// same id. A re-registration with a different type panics: two components
// disagreeing about an instrument is a programming error.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := m.meta().id
	if prev, ok := r.byID[id]; ok {
		if prev.meta().typ != m.meta().typ {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)",
				id, m.meta().typ, prev.meta().typ))
		}
		return prev
	}
	r.byID[id] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{m: *newMeta(name, "counter", help, labels)}
	return r.register(c).(*Counter)
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{m: *newMeta(name, "gauge", help, labels)}
	return r.register(g).(*Gauge)
}

// FuncGauge registers a callback-backed gauge. Re-registering the same id
// keeps the first callback.
func (r *Registry) FuncGauge(name, help string, fn func() float64, labels ...Label) *FuncGauge {
	g := &FuncGauge{m: *newMeta(name, "gauge", help, labels), fn: fn}
	return r.register(g).(*FuncGauge)
}

// Histogram registers (or fetches) a histogram with the given ascending
// bucket upper bounds (the +Inf bucket is implicit). Unsorted or empty
// bucket lists panic at registration, never at Observe time.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket")
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("telemetry: histogram buckets must be ascending")
	}
	h := &Histogram{
		m:      *newMeta(name, "histogram", help, labels),
		uppers: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)),
	}
	return r.register(h).(*Histogram)
}

// SetOpMode publishes the plant's current operating mode (the PR 5
// survivability rung) into the /healthz report. With draining set the
// endpoint answers 503 regardless of the individual health checks — the
// signal a load balancer uses to take the site out of rotation while the
// plant is dark. The control plane calls this on every ladder transition.
func (r *Registry) SetOpMode(mode string, draining bool) {
	r.opMu.Lock()
	r.opMode, r.opDraining = mode, draining
	r.opMu.Unlock()
}

// OpMode returns the last published operating mode ("" before the first
// SetOpMode) and whether the process asked to be drained.
func (r *Registry) OpMode() (mode string, draining bool) {
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	return r.opMode, r.opDraining
}

// AddHealthCheck installs a named liveness check surfaced by /healthz. A
// check installed under a name already in use replaces it, so a component
// that attaches again — a controller restarted from its journal — keeps
// one check.
func (r *Registry) AddHealthCheck(name string, check func() error) {
	r.healthM.Lock()
	defer r.healthM.Unlock()
	for i := range r.health {
		if r.health[i].Name == name {
			r.health[i].Check = check
			return
		}
	}
	r.health = append(r.health, HealthCheck{Name: name, Check: check})
}

// OnCollect installs fn as the collect hook named name. Snapshot and
// WritePrometheus run every hook before they read an instrument, so fn is
// where a component copies its state into its instruments. fn runs
// holding lock, which must guard everything fn reads; a nil lock means the
// registry's collect lock (SetCollectLock). fn must not take another
// hook's lock. A hook installed under a name already in use replaces it:
// a plant attached again reports the newest state once.
func (r *Registry) OnCollect(name string, lock sync.Locker, fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.hooks {
		if r.hooks[i].name == name {
			r.hooks[i] = collectHook{name, lock, fn}
			return
		}
	}
	r.hooks = append(r.hooks, collectHook{name, lock, fn})
}

// SetCollectLock sets the lock that hooks installed without their own run
// under. A program that scrapes while it ticks sets it to the lock it
// ticks under; one that scrapes only between its own ticks leaves it
// unset.
func (r *Registry) SetCollectLock(l sync.Locker) {
	r.mu.Lock()
	r.collectLock = l
	r.mu.Unlock()
}

// collect runs the collect hooks in installation order, one at a time,
// each under its own lock.
func (r *Registry) collect() {
	r.mu.RLock()
	hooks := append([]collectHook(nil), r.hooks...)
	dflt := r.collectLock
	r.mu.RUnlock()
	for _, h := range hooks {
		h.run(dflt)
	}
}

func (h collectHook) run(dflt sync.Locker) {
	l := h.lock
	if l == nil {
		l = dflt
	}
	if l != nil {
		l.Lock()
		defer l.Unlock()
	}
	h.fn()
}

// healthChecks returns a copy of the installed checks.
func (r *Registry) healthChecks() []HealthCheck {
	r.healthM.RLock()
	defer r.healthM.RUnlock()
	return append([]HealthCheck(nil), r.health...)
}

// sortedMetrics returns the metrics grouped by name (help/type emitted
// once per name) and ordered by id within a name.
func (r *Registry) sortedMetrics() []metric {
	r.mu.RLock()
	out := append([]metric(nil), r.order...)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].meta(), out[j].meta()
		if mi.name != mj.name {
			return mi.name < mj.name
		}
		return mi.id < mj.id
	})
	return out
}
