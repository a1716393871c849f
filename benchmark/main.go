// Command benchmark measures the InSURE reproduction end to end: how fast
// it simulates plants, serves requests, federates sites over a degraded
// WAN, and runs its journaled control loop over Modbus, each on inputs
// generated from a seed and each checked for correct outputs before its
// timings count.
//
// It is its own Go module so the main module's build and tests never see
// it; run.sh builds it from source and runs it. From the repository root:
//
//	bash benchmark/run.sh --workload campaign --seed 2015 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seconds 120 -out results.json
//	bash benchmark/run.sh --workload fieldbus --trace 1 -spans spans.json
//
// Flags:
//
//	--workload  campaign, serving, fleet_wan, fieldbus, or all
//	--seed      generates every workload input (default 2015); the program
//	            under test only sees the generated traces, request stream
//	            and WAN plan
//	--seconds   how long to keep starting reps (default 20); at least 3
//	            reps of each workload run. With all, the workloads take
//	            turns rep by rep, so drift in the host's speed hits each
//	            of them alike.
//	--trace     0 reports the end-to-end metrics. 1 runs one untraced and
//	            one traced rep of every workload, whichever --workload
//	            names, and reports the per-layer metrics, including each
//	            workload's trace_overhead_frac; --seconds does not apply
//	-out        also write every rep, the aggregates and the host to a
//	            JSON file
//	-spans      where the traced run writes its spans, in Chrome
//	            trace-event JSON (default .bench_build/spans.json)
//	-state-dir  where reps keep journals and images on disk (default
//	            .bench_build/state); each rep removes its own
//
// Every rep runs in a fresh child process (the hidden -one flag), so each
// starts with a clean heap and reports its own peak RSS. A run prints one
// line per metric, "metric workload value unit", and then, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics. The metric names, units, directions and regression bounds are
// in BENCHMARK.json at the repository root; why each workload exists is in
// its "why" field there.
//
// End-to-end metrics, reported for every workload, with wall times scaled
// to the host of record's speed (see hostref.go):
//
//	plant_years_per_sec  simulated plant time over the wall time of the
//	                     timed section, median over reps
//	op_p90_us            90th percentile wall time of one operation, pooled
//	                     over reps: campaign one simulated plant-hour of a
//	                     cell, serving one request's admission (each
//	                     simulated second's Offer calls over their count),
//	                     fleet_wan one coordinator period (the pass plus 300
//	                     ticks of every site), fieldbus one journaled control
//	                     pass (Modbus I/O, decision, fsync commit). On the
//	                     host of record the median and p99 moved too much
//	                     from run to run to hold a bound; p90 held.
//	setup_s              from the parent starting the child to the child's
//	                     first timed operation, median over reps
//	peak_rss_mb          the child's peak resident set, median over reps
//
// attempted counts operations; failed counts the ones the workload's
// checks call failed (cells that errored, admitted-then-dropped requests,
// exactly-once guard hits, fieldbus fallbacks and retries). A rep whose
// checks fail makes correct false, and so do two reps of one seed whose
// checked outputs differ.
//
// Host of record: a 2-vCPU Intel Xeon virtual machine, no cgroup CPU
// quota, ext4 state directory, Linux 6.18, Go 1.24.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workload is one named set of inputs the benchmark runs. run sets up,
// times and checks one rep; tr is nil for an untraced rep.
type workload struct {
	name string
	run  func(r *rep, seed int64, tr *tracer) error
}

var workloads = []workload{
	{"campaign", runCampaign},
	{"serving", runServing},
	{"fleet_wan", runFleetWAN},
	{"fieldbus", runFieldbus},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"plant_years_per_sec", "plant-yr/s"},
	{"op_p90_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists what the traced run reports, prefixed by the workload
// whose traced child measures it. Each workload's op_p50_us is the median
// operation of its untraced rep there, unscaled: run to run on the host of
// record it moves too much to hold a bound.
var perLayer = []metricDef{
	{"campaign.op_p50_us", "us"},
	{"campaign.sim.tick_ns.p50", "ns"},
	{"campaign.sim.tick_self_ns.p50", "ns"},
	{"campaign.plc.sample_ns.p50", "ns"},
	{"campaign.plc.actuate_ns.p50", "ns"},
	{"campaign.core.control_us.p50", "us"},
	{"campaign.baseline.control_us.p50", "us"},
	{"campaign.workload.sink_tick_ns.p50", "ns"},
	{"campaign.battery.rest_all_ns", "ns"},
	{"campaign.battery.charge_set_ns", "ns"},
	{"campaign.battery.discharge_set_ns", "ns"},
	{"campaign.relay.fabric_tick_ns", "ns"},
	{"campaign.plc.scan_ns", "ns"},
	{"campaign.sim.allocs_per_tick", "allocs/tick"},
	{"campaign.sim.pool_speedup", "x"},
	{"campaign.runtime.gc_cpu_frac", "ratio"},
	{"campaign.runtime.sched_wait_us", "us"},
	{"campaign.trace_overhead_frac", "ratio"},
	{"serving.op_p50_us", "us"},
	{"serving.gateway.offer_ns.p50", "ns"},
	{"serving.gateway.offer_ns.p99", "ns"},
	{"serving.gateway.advance_ns.p50", "ns"},
	{"serving.sim.fleet_tick_us.p50", "us"},
	{"serving.gateway.state_calls_per_req", "calls/req"},
	{"serving.gateway.forecast_calls_per_req", "calls/req"},
	{"serving.gateway.shed_frac", "ratio"},
	{"serving.gateway.queued_frac", "ratio"},
	{"serving.trace_overhead_frac", "ratio"},
	{"fleet_wan.op_p50_us", "us"},
	{"fleet_wan.fleet.pass_self_us.p50", "us"},
	{"fleet_wan.sim.site_tick_us.p50", "us"},
	{"fleet_wan.journal.fsync_us.p50", "us"},
	{"fleet_wan.journal.fsync_us.p99", "us"},
	{"fleet_wan.journal.snapshot_ms", "ms"},
	{"fleet_wan.journal.scrub_ms", "ms"},
	{"fleet_wan.fleet.log_replay_ms", "ms"},
	{"fleet_wan.fleet.goodput_frac", "ratio"},
	{"fleet_wan.wan.chunk_losses", "count"},
	{"fleet_wan.fleet.log_records", "count"},
	{"fleet_wan.trace_overhead_frac", "ratio"},
	{"fieldbus.op_p50_us", "us"},
	{"fieldbus.modbus.rtt_us.p50", "us"},
	{"fieldbus.modbus.rtt_us.p99", "us"},
	{"fieldbus.modbus.round_trips_per_pass", "count/pass"},
	{"fieldbus.journal.commit_us.p50", "us"},
	{"fieldbus.journal.commit_us.p99", "us"},
	{"fieldbus.journal.fsyncs_per_pass", "count/pass"},
	{"fieldbus.journal.bytes_per_pass", "B/pass"},
	{"fieldbus.core.control_self_us.p50", "us"},
	{"fieldbus.plc.sample_ns.p50", "ns"},
	{"fieldbus.plc.actuate_ns.p50", "ns"},
	{"fieldbus.trace_overhead_frac", "ratio"},
}

const (
	// minReps is the fewest reps a run takes of each workload, however
	// short --seconds is.
	minReps = 3
	// childTimeout bounds one child process.
	childTimeout = 150 * time.Second
)

// size shapes a rep. The benchmark always runs fullSize; the tests run a
// smaller one.
type size struct {
	campaignSeeds  int           // day traces per sky condition
	servingQPS     float64       // offered requests per second
	fleetDays      int           // simulated days of the federation
	fieldbusWindow time.Duration // length of the fieldbus plant's operating window
}

var fullSize = size{campaignSeeds: 3, servingQPS: 40, fleetDays: 6, fieldbusWindow: 11*time.Hour + 30*time.Minute}

// rep accumulates what one rep of a workload measured and checked.
type rep struct {
	size       size
	dir        string // private state directory, removed after the rep
	begin      int64  // clock when set-up began
	start, end int64  // the timed section
	plantYears float64
	attempted  int64
	failed     int64
	lat        hist
	digest     hash.Hash64
	problems   []string
}

func newRep(sz size, dir string, begin int64) *rep {
	return &rep{size: sz, dir: dir, begin: begin, digest: fnv.New64a()}
}

func (r *rep) startTimed() { r.start = clock() }
func (r *rep) stopTimed()  { r.end = clock() }

// check records a failed check.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fold adds checked output to the rep's digest; reps of one seed must end
// with equal digests.
func (r *rep) fold(format string, args ...any) { fmt.Fprintf(r.digest, format, args...) }

// repResult is what a child process reports for one rep.
type repResult struct {
	Workload   string             `json:"workload"`
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	RefS       [2]float64         `json:"ref_s"` // hostRef in the parent just before and after
	PlantYears float64            `json:"plant_years"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Latency    [][2]int64         `json:"latency"`
	Digest     string             `json:"digest"`
	Problems   []string           `json:"problems,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
}

// runRep runs one rep of w in this process and reports it.
func runRep(w workload, sz size, seed int64, tr *tracer, stateRoot string, begin int64) (repResult, error) {
	dir := filepath.Join(stateRoot, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), clock()))
	r := newRep(sz, dir, begin)
	err := w.run(r, seed, tr)
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		return repResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if r.end <= r.start {
		return repResult{}, fmt.Errorf("%s: rep timed nothing", w.name)
	}
	return repResult{
		Workload:   w.name,
		SetupS:     float64(r.start-r.begin) / 1e9,
		WallS:      float64(r.end-r.start) / 1e9,
		PlantYears: r.plantYears,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Latency:    r.lat.sparse(),
		Digest:     strconv.FormatUint(r.digest.Sum64(), 16),
		Problems:   r.problems,
	}, nil
}

// runChild is the -one mode: one rep, or with traced an untraced rep then
// a traced one, printed as one JSON line. parentStart is the wall clock at
// which the parent started this process; set-up time counts from there.
func runChild(name string, seed int64, traced bool, stateRoot string, parentStart int64) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	begin := clock() - int64(time.Since(time.Unix(0, parentStart)))
	res, err := runRep(w, fullSize, seed, nil, stateRoot, begin)
	if err != nil {
		return err
	}
	if traced {
		tr := newTracer()
		tres, err := runRep(w, fullSize, seed, tr, stateRoot, clock())
		if err != nil {
			return err
		}
		if tres.Digest != res.Digest {
			res.Problems = append(res.Problems, "traced rep's checked outputs differ from the untraced rep's")
		}
		res.Problems = append(res.Problems, tres.Problems...)
		res.Attempted += tres.Attempted
		res.Failed += tres.Failed
		res.Layers = tr.values
		res.Layers[name+".trace_overhead_frac"] = tres.WallS/res.WallS - 1
		res.Spans = tr.spans
	}
	res.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one rep in a fresh child process.
func spawn(ctx context.Context, exe, name string, seed int64, traced bool, stateRoot string) (repResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-one", name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-state-dir", stateRoot, "-t0", "")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Args[len(cmd.Args)-1] = strconv.FormatInt(time.Now().UnixNano(), 10)
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s rep: %w", name, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("%s rep: bad report: %w", name, err)
	}
	return res, nil
}

// speed is the factor that scales the rep's wall times to the host of
// record's nominal speed: the reference kernel's nominal time over its
// mean time around the rep. Set-up, which comes first, takes the factor
// from the kernel run before the rep alone.
func (r repResult) speed() float64 { return refNominal / ((r.RefS[0] + r.RefS[1]) / 2) }

// summary aggregates one workload's reps.
type summary struct {
	Workload  string             `json:"workload"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	OpSamples int64              `json:"op_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// summarize aggregates reps: medians over reps, latency percentiles over
// the pooled samples, and any per-layer metrics the reps carry.
func summarize(name string, reps []repResult) summary {
	s := summary{Workload: name, Reps: len(reps), Metrics: map[string]float64{}}
	var rates, setups, rss []float64
	lat := &hist{}
	for i, r := range reps {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Problems = append(s.Problems, r.Problems...)
		if r.Digest != reps[0].Digest {
			s.Problems = append(s.Problems, fmt.Sprintf("rep %d's checked outputs differ from rep 0's", i))
		}
		rates = append(rates, r.PlantYears/(r.WallS*r.speed()))
		setups = append(setups, r.SetupS*refNominal/r.RefS[0])
		rss = append(rss, r.PeakRSSMB)
		lat.mergeScaled(histFromSparse(r.Latency), r.speed())
		for k, v := range r.Layers {
			s.Metrics[k] = v
		}
	}
	s.Correct = len(s.Problems) == 0
	s.OpSamples = lat.n
	s.Metrics["plant_years_per_sec"] = median(rates)
	s.Metrics["op_p90_us"] = lat.quantile(0.90) / 1e3
	s.Metrics["setup_s"] = median(setups)
	s.Metrics["peak_rss_mb"] = median(rss)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// options are the parent's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	out       string
	spans     string
	stateRoot string
}

// untracedReps takes turns rep by rep over the named workloads until
// --seconds is spent, starting no round that would probably overrun it by
// more than half a round. Between reps it times hostRef, so each rep is
// bracketed by two kernel runs.
func untracedReps(ctx context.Context, exe string, names []string, o options) (map[string][]repResult, error) {
	reps := map[string][]repResult{}
	t0 := time.Now()
	hostRef() // wakes the CPUs
	ref := hostRef()
	for round := 1; ; round++ {
		for _, n := range names {
			res, err := spawn(ctx, exe, n, o.seed, false, o.stateRoot)
			if err != nil {
				return nil, err
			}
			next := hostRef()
			res.RefS = [2]float64{ref, next}
			ref = next
			reps[n] = append(reps[n], res)
		}
		elapsed := time.Since(t0).Seconds()
		if round >= minReps && elapsed+0.5*elapsed/float64(round) >= o.seconds {
			return reps, nil
		}
	}
}

// tracedReps runs one traced child per workload and merges them into one
// summary holding every per-layer metric.
func tracedReps(ctx context.Context, exe string, o options) (map[string][]repResult, summary, error) {
	reps := map[string][]repResult{}
	merged := summary{Workload: o.workload, Metrics: map[string]float64{}}
	for _, w := range workloads {
		n := w.name
		res, err := spawn(ctx, exe, n, o.seed, true, o.stateRoot)
		if err != nil {
			return nil, summary{}, err
		}
		reps[n] = []repResult{res}
		merged.Reps++
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		merged.Problems = append(merged.Problems, res.Problems...)
		for k, v := range res.Layers {
			merged.Metrics[k] = v
		}
		merged.Metrics[n+".op_p50_us"] = histFromSparse(res.Latency).quantile(0.5) / 1e3
	}
	merged.Correct = len(merged.Problems) == 0
	for _, d := range perLayer {
		if _, ok := merged.Metrics[d.name]; !ok {
			return nil, summary{}, fmt.Errorf("traced run did not measure %s", d.name)
		}
	}
	return reps, merged, nil
}

// run is the parent: it schedules the reps, aggregates them and prints the
// report.
func run(ctx context.Context, o options) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := findWorkload(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		return err
	}
	host := probeHost(o.stateRoot)
	fmt.Fprintf(os.Stderr, "host: %s\n", host)

	var reps map[string][]repResult
	var sums []summary
	defs := endToEnd
	if o.traced {
		var merged summary
		reps, merged, err = tracedReps(ctx, exe, o)
		if err != nil {
			return err
		}
		if err := writeSpans(o.spans, reps); err != nil {
			return err
		}
		sums, defs = []summary{merged}, perLayer
	} else {
		reps, err = untracedReps(ctx, exe, names, o)
		if err != nil {
			return err
		}
		for _, n := range names {
			s := summarize(n, reps[n])
			fmt.Fprintf(os.Stderr, "%s: %d reps, %d op samples pooled\n", n, s.Reps, s.OpSamples)
			sums = append(sums, s)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	correct := true
	var attempted, failed int64
	byWorkload := map[string]map[string]value{}
	for _, s := range sums {
		correct = correct && s.Correct
		attempted += s.Attempted
		failed += s.Failed
		for _, p := range s.Problems {
			fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", s.Workload, p)
		}
		m := map[string]value{}
		for _, d := range defs {
			m[d.name] = value{s.Metrics[d.name], d.unit}
			fmt.Printf("%s %s %s %s\n", d.name, s.Workload, strconv.FormatFloat(s.Metrics[d.name], 'g', 6, 64), d.unit)
		}
		byWorkload[s.Workload] = m
	}
	if o.out != "" {
		doc := map[string]any{"host": host, "seed": o.seed, "summaries": sums, "reps": stripSpans(reps)}
		if err := writeJSON(o.out, doc); err != nil {
			return err
		}
	}
	// One workload reports its metrics flat; all nests them by workload.
	var metrics any = byWorkload
	if len(sums) == 1 {
		metrics = byWorkload[sums[0].Workload]
	}
	line, err := json.Marshal(struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   any   `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func stripSpans(reps map[string][]repResult) map[string][]repResult {
	out := map[string][]repResult{}
	for k, rs := range reps {
		for _, r := range rs {
			r.Spans = nil
			out[k] = append(out[k], r)
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes every traced rep's spans as Chrome trace-event JSON,
// one process lane per workload.
func writeSpans(path string, reps map[string][]repResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
	}
	for pid, wl := range workloads {
		sep()
		fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, pid+1, wl.name)
		for _, r := range reps[wl.name] {
			for _, s := range r.Spans {
				sep()
				fmt.Fprintf(w, `{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d}}`,
					s.Name, float64(s.Start)/1e3, float64(s.Dur)/1e3, pid+1, s.Lane, s.ID, s.Parent)
			}
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	var o options
	flag.StringVar(&o.workload, "workload", "all", "campaign, serving, fleet_wan, fieldbus, or all")
	flag.Int64Var(&o.seed, "seed", 2015, "seed every workload input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to keep starting reps")
	trace := flag.Int("trace", 0, "1 runs the traced reps and reports per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write reps, aggregates and host to this JSON file")
	flag.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans.json"), "span file the traced run writes")
	flag.StringVar(&o.stateRoot, "state-dir", filepath.Join(".bench_build", "state"), "directory reps keep their on-disk state under")
	one := flag.String("one", "", "internal: run one rep of this workload and print it as JSON")
	t0 := flag.Int64("t0", 0, "internal: wall clock in Unix ns when the parent started this rep")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	o.traced = *trace == 1

	if *one != "" {
		if err := runChild(*one, o.seed, o.traced, o.stateRoot, *t0); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(context.Background(), o); err != nil {
		log.Fatal(err)
	}
}
