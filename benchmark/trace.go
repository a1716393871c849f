package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"insure/internal/gateway"
	"insure/internal/journal"
	"insure/internal/sim"
)

// epoch anchors every timestamp the benchmark takes.
var epoch = time.Now()

// clock returns monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// subBits sets the histogram resolution: 2^subBits buckets per octave, so
// no bucket is wider than 1/128 of its value.
const subBits = 7

// hist is a log-linear histogram of nanosecond durations. Values below
// 2^subBits are exact; each octave above is split into 2^subBits equal
// buckets, so percentiles pooled over millions of samples cost a few
// kilobytes and can be merged across reps and processes.
type hist struct {
	counts []int64
	n      int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits | int(v>>e)&(1<<subBits-1)
}

// bucketRange returns bucket b's lowest value and its width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := int64(b&(1<<subBits-1) | 1<<subBits)
	return float64(m << e), float64(int64(1) << e)
}

func (h *hist) add(v int64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// mergeScaled adds o's samples multiplied by f, each at its bucket's
// midpoint.
func (h *hist) mergeScaled(o *hist, f float64) {
	for b, c := range o.counts {
		if c == 0 {
			continue
		}
		lo, w := bucketRange(b)
		nb := bucketOf(int64((lo + w/2) * f))
		if nb >= len(h.counts) {
			h.counts = append(h.counts, make([]int64, nb+1-len(h.counts))...)
		}
		h.counts[nb] += c
	}
	h.n += o.n
}

func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		if c == 0 {
			continue
		}
		if b >= len(h.counts) {
			h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
		}
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// sparse lists the non-empty buckets as (bucket, count) pairs, the form a
// child process reports its histogram in.
func (h *hist) sparse() [][2]int64 {
	var out [][2]int64
	for b, c := range h.counts {
		if c != 0 {
			out = append(out, [2]int64{int64(b), c})
		}
	}
	return out
}

func histFromSparse(pairs [][2]int64) *hist {
	h := &hist{}
	for _, p := range pairs {
		b := int(p[0])
		if b >= len(h.counts) {
			h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
		}
		h.counts[b] += p[1]
		h.n += p[1]
	}
	return h
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Start is in the recording process's clock.
type span struct {
	Name   string `json:"n"`
	Start  int64  `json:"s"`
	Dur    int64  `json:"d"`
	ID     int64  `json:"i"`
	Parent int64  `json:"p,omitempty"`
	Lane   int    `json:"l,omitempty"`
}

// tracer collects the spans and per-layer metrics of one traced rep. It is
// safe for concurrent use; hot paths batch into local buffers and hand them
// over once.
type tracer struct {
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	values map[string]float64
}

func newTracer() *tracer { return &tracer{values: map[string]float64{}} }

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) record(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// set records one per-layer metric.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// bracket is called around one timed call: begin returns its start time
// and end receives it back once the call returns.
type bracket struct {
	begin func() int64
	end   func(start int64)
}

// timedManager brackets every control pass of the manager it wraps. Only
// wrap managers nothing type-asserts: fleet looks for SetModeHook and Mode
// on the concrete manager.
type timedManager struct {
	sim.Manager
	bracket
}

func (m *timedManager) Control(sys *sim.System, now time.Duration) {
	start := m.begin()
	m.Manager.Control(sys, now)
	m.end(start)
}

// timedSink brackets every workload tick.
type timedSink struct {
	sim.Sink
	bracket
}

func (s *timedSink) Tick(now, dt time.Duration, workVMh float64, nVMs int) float64 {
	start := s.begin()
	gb := s.Sink.Tick(now, dt, workVMh, nVMs)
	s.end(start)
	return gb
}

// countingPlant counts the gateway's calls into the plant's energy state
// and forecast.
type countingPlant struct {
	gateway.Plant
	states, forecasts int64
}

func (p *countingPlant) State(now time.Duration) gateway.State {
	p.states++
	return p.Plant.State(now)
}

func (p *countingPlant) ForecastW(at time.Duration) float64 {
	p.forecasts++
	return p.Plant.ForecastW(at)
}

// timingFS times the storage calls a journal store makes and
// hands each to onOp with the bytes it wrote. It is used from one
// goroutine at a time, like the stores it sits under.
type timingFS struct {
	journal.FS
	onOp func(op string, start, end int64, written int)
}

func (f *timingFS) OpenFile(name string, flag int) (journal.File, error) {
	t0 := clock()
	file, err := f.FS.OpenFile(name, flag)
	f.onOp("open", t0, clock(), 0)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := clock()
	b, err := f.FS.ReadFile(name)
	f.onOp("read", t0, clock(), 0)
	return b, err
}

func (f *timingFS) Rename(oldname, newname string) error {
	t0 := clock()
	err := f.FS.Rename(oldname, newname)
	f.onOp("rename", t0, clock(), 0)
	return err
}

func (f *timingFS) Remove(name string) error {
	t0 := clock()
	err := f.FS.Remove(name)
	f.onOp("remove", t0, clock(), 0)
	return err
}

func (f *timingFS) SyncDir(dir string) error {
	t0 := clock()
	err := f.FS.SyncDir(dir)
	f.onOp("syncdir", t0, clock(), 0)
	return err
}

type timingFile struct {
	journal.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := clock()
	n, err := f.File.Write(p)
	f.fs.onOp("write", t0, clock(), n)
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := clock()
	err := f.File.Sync()
	f.fs.onOp("fsync", t0, clock(), 0)
	return err
}

func (f *timingFile) Close() error {
	t0 := clock()
	err := f.File.Close()
	f.fs.onOp("close", t0, clock(), 0)
	return err
}

// ioProbe aggregates one store's timed storage calls: how long they took,
// how many fsyncs and bytes, and each fsync's latency. When parent points
// at a live span ID the calls are also recorded as its child spans.
type ioProbe struct {
	tr      *tracer
	prefix  string
	parent  *int64
	busy    int64
	syncs   int64
	written int64
	fsync   hist
	spans   []span
}

func (p *ioProbe) fs() *timingFS {
	return &timingFS{FS: journal.Disk, onOp: p.op}
}

func (p *ioProbe) op(op string, start, end int64, written int) {
	p.busy += end - start
	p.written += int64(written)
	if op == "fsync" || op == "syncdir" {
		p.syncs++
	}
	if op == "fsync" {
		p.fsync.add(end - start)
	}
	if p.parent != nil && *p.parent != 0 {
		p.spans = append(p.spans, span{Name: p.prefix + op, Start: start, Dur: end - start,
			ID: p.tr.id(), Parent: *p.parent})
	}
}
