package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insure_test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("insure_test_gauge", "a gauge")
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", got)
	}
	f := r.FuncGauge("insure_test_func", "a func gauge", func() float64 { return 42 })
	if got := f.Value(); got != 42 {
		t.Fatalf("func gauge = %v, want 42", got)
	}
}

func TestRegistryDeduplicatesById(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("insure_dup_total", "dup", Label{"unit", "1"})
	b := r.Counter("insure_dup_total", "dup", Label{"unit", "1"})
	if a != b {
		t.Fatal("same id should return the same counter")
	}
	other := r.Counter("insure_dup_total", "dup", Label{"unit", "2"})
	if a == other {
		t.Fatal("different label set should be a different counter")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("insure_conflict", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("insure_conflict", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("insure_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	count, cum := h.snapshotCounts()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	want := []int64{1, 2, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if got := h.Sum(); math.Abs(got-5.555) > 1e-12 {
		t.Fatalf("sum = %v, want 5.555", got)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	r := NewRegistry()
	for _, buckets := range [][]float64{nil, {}, {1, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buckets %v should panic", buckets)
				}
			}()
			r.Histogram("insure_bad_seconds", "bad", buckets)
		}()
	}
}

// TestConcurrentIncObserve hammers every instrument from many goroutines;
// run under -race this is the registry's data-race proof, and the final
// totals prove no increment was lost.
func TestConcurrentIncObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insure_conc_total", "c")
	g := r.Gauge("insure_conc_gauge", "g")
	h := r.Histogram("insure_conc_seconds", "h", []float64{0.5})
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%2) * 0.9)
				r.SetClock(time.Duration(i) * time.Second)
			}
		}(w)
	}
	// Concurrent readers: scrape and snapshot while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(&strings.Builder{})
			s := r.Snapshot()
			hs := s.Histograms["insure_conc_seconds"]
			// Consistency contract: count is loaded first, buckets after,
			// so the +Inf cumulative total can never be behind the count.
			if len(hs.Cumulative) > 0 && hs.Cumulative[len(hs.Cumulative)-1] < hs.Count {
				t.Errorf("histogram +Inf %d < count %d mid-flight",
					hs.Cumulative[len(hs.Cumulative)-1], hs.Count)
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	count, cum := h.snapshotCounts()
	if cum[len(cum)-1] != count {
		t.Fatalf("quiesced histogram buckets %v != count %d", cum, count)
	}
}

// TestHotPathAllocFree pins the instrumentation primitives at zero
// allocations — the property that lets them live inside the simulation's
// zero-alloc steady-state tick.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insure_alloc_total", "c")
	g := r.Gauge("insure_alloc_gauge", "g")
	h := r.Histogram("insure_alloc_seconds", "h", DefTimeBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.5)
		h.Observe(0.003)
		r.SetClock(time.Second)
	}); n != 0 {
		t.Fatalf("hot path allocates %.2f times per op, want 0", n)
	}
}

func TestSnapshotValues(t *testing.T) {
	r := NewRegistry()
	r.SetClock(90 * time.Second)
	r.Counter("insure_snap_total", "c", Label{"unit", "3"}).Add(7)
	r.Gauge("insure_snap_gauge", "g").Set(-2.5)
	h := r.Histogram("insure_snap_seconds", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)
	s := r.Snapshot()
	if s.SimClockSeconds != 90 {
		t.Errorf("clock = %v", s.SimClockSeconds)
	}
	if s.Counters[`insure_snap_total{unit="3"}`] != 7 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["insure_snap_gauge"] != -2.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	hs := s.Histograms["insure_snap_seconds"]
	if hs.Count != 2 || hs.Sum != 3.5 || len(hs.Cumulative) != 3 ||
		hs.Cumulative[0] != 1 || hs.Cumulative[2] != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("insure_json_total", "c").Inc()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"insure_json_total": 1`) {
		t.Errorf("json = %s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("insure_esc_gauge", "g", Label{"path", `a"b\c` + "\n"}).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `insure_esc_gauge{path="a\"b\\c\n"} 1`) {
		t.Errorf("exposition = %s", b.String())
	}
}

// TestExpositionGolden pins the exact text format for a small registry,
// so accidental format drift is caught.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.SetClock(30 * time.Second)
	r.Counter("insure_golden_total", "Golden counter.", Label{"unit", "0"}).Add(3)
	r.Gauge("insure_golden_soc", "Golden gauge.").Set(0.75)
	h := r.Histogram("insure_golden_seconds", "Golden histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP insure_sim_clock_seconds Monotonic simulation clock shared with the logbook.
# TYPE insure_sim_clock_seconds gauge
insure_sim_clock_seconds 30
# HELP insure_golden_seconds Golden histogram.
# TYPE insure_golden_seconds histogram
insure_golden_seconds_bucket{le="0.1"} 1
insure_golden_seconds_bucket{le="1"} 2
insure_golden_seconds_bucket{le="+Inf"} 2
insure_golden_seconds_sum 0.55
insure_golden_seconds_count 2
# HELP insure_golden_soc Golden gauge.
# TYPE insure_golden_soc gauge
insure_golden_soc 0.75
# HELP insure_golden_total Golden counter.
# TYPE insure_golden_total counter
insure_golden_total{unit="0"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestSetTotalNeverGoesDown pins the lifetime-total setter: it raises the
// count to the total and ignores a smaller one.
func TestSetTotalNeverGoesDown(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("insure_total_total", "c")
	c.Inc()
	c.SetTotal(5)
	c.SetTotal(3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

// TestBucketsStoreMatchesObserve feeds one value stream to a histogram's
// Observe and to a plain Buckets twin published with Store: the two
// histograms expose the same bytes, the sum bit for bit.
func TestBucketsStoreMatchesObserve(t *testing.T) {
	pushed, pulled := NewRegistry(), NewRegistry()
	h := pushed.Histogram("insure_twin_seconds", "h", DefTimeBuckets)
	g := pulled.Histogram("insure_twin_seconds", "h", DefTimeBuckets)
	b := g.Buckets()
	for i := 0; i < 5000; i++ {
		v := float64(i%97) * 1.1e-3
		if i%13 == 0 {
			v = 7 + float64(i)/3 // past the last bound: +Inf
		}
		h.Observe(v)
		b.Observe(v)
	}
	g.Store(&b)
	var want, got strings.Builder
	if err := pushed.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := pulled.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("stored twin exposes\n%s\nobserved histogram\n%s", got.String(), want.String())
	}
	if math.Float64bits(g.Sum()) != math.Float64bits(h.Sum()) {
		t.Fatalf("sum %v, want %v bit for bit", g.Sum(), h.Sum())
	}
}

// TestCollectHooks pins the collect contract: Snapshot and WritePrometheus
// run the hooks before reading, a hook installed under a used name
// replaces the old one, and a hook runs under its own lock or, without
// one, the registry's collect lock.
func TestCollectHooks(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("insure_hook_gauge", "g")
	var own, shared lockProbe
	r.SetCollectLock(&shared)
	runs := map[string]int{}
	r.OnCollect("plant", nil, func() { runs["old plant"]++ })
	r.OnCollect("gateway", &own, func() {
		runs["gateway"]++
		if !own.held || shared.held {
			t.Error("gateway hook must run under its own lock alone")
		}
	})
	r.OnCollect("plant", nil, func() {
		runs["plant"]++
		if !shared.held || own.held {
			t.Error("plant hook must run under the collect lock alone")
		}
		g.Set(float64(runs["plant"]))
	})
	if got := r.Snapshot().Gauges["insure_hook_gauge"]; got != 1 {
		t.Errorf("snapshot gauge = %v, want the hook's 1", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "insure_hook_gauge 2\n") {
		t.Errorf("exposition missing the hook's second value:\n%s", sb.String())
	}
	if runs["old plant"] != 0 || runs["plant"] != 2 || runs["gateway"] != 2 {
		t.Errorf("hook runs = %v, want the replaced plant hook never and the others twice", runs)
	}
	if own.held || shared.held {
		t.Error("a lock is still held after collection")
	}
}

// lockProbe is a sync.Locker that records whether it is held.
type lockProbe struct{ held bool }

func (l *lockProbe) Lock()   { l.held = true }
func (l *lockProbe) Unlock() { l.held = false }
