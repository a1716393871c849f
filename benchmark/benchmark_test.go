package main

import (
	"strings"
	"testing"
	"time"
)

// testSize keeps every workload's rep to well under a second.
var testSize = size{campaignSeeds: 1, servingQPS: 2, fleetDays: 1, fieldbusWindow: time.Hour}

func mustRep(t *testing.T, w workload, tr *tracer, root string) repResult {
	t.Helper()
	res, err := runRep(w, testSize, 2015, tr, root, clock())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Problems {
		t.Errorf("check failed: %s", p)
	}
	if res.Attempted == 0 || res.PlantYears <= 0 || res.WallS <= 0 {
		t.Errorf("rep measured nothing: %+v", res)
	}
	return res
}

// TestRepsAgree runs every workload twice untraced and once traced on one
// seed. All three must pass their checks and agree on every checked
// output: same-seed reps are deterministic, and the decorators, hooks and
// relay of the traced rep change nothing the program computes. Between
// them the traced reps must emit every per-layer metric under its
// workload's prefix, and the untraced reps every end-to-end metric.
func TestRepsAgree(t *testing.T) {
	root := t.TempDir()
	emitted := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustRep(t, w, nil, root)
			b := mustRep(t, w, nil, root)
			tr := newTracer()
			c := mustRep(t, w, tr, root)
			if b.Digest != a.Digest {
				t.Errorf("two untraced reps of one seed differ: %s vs %s", a.Digest, b.Digest)
			}
			if c.Digest != a.Digest {
				t.Errorf("traced rep differs from the untraced one: %s vs %s", c.Digest, a.Digest)
			}
			for name := range tr.values {
				if !strings.HasPrefix(name, w.name+".") {
					t.Errorf("%s's traced rep emits %s", w.name, name)
				}
				emitted[name] = true
			}
			a.RefS = [2]float64{refNominal, refNominal}
			b.RefS = a.RefS
			s := summarize(w.name, []repResult{a, b})
			if !s.Correct {
				t.Errorf("summary not correct: %v", s.Problems)
			}
			for _, d := range endToEnd {
				if _, ok := s.Metrics[d.name]; !ok {
					t.Errorf("summary lacks %s", d.name)
				}
			}
			if len(s.Metrics) != len(endToEnd) {
				t.Errorf("summary emits %d metrics, want %d", len(s.Metrics), len(endToEnd))
			}
		})
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
		// runChild and tracedReps add these from the untraced rep.
		if !emitted[d.name] && !strings.HasSuffix(d.name, ".trace_overhead_frac") && !strings.HasSuffix(d.name, ".op_p50_us") {
			t.Errorf("no traced rep emits %s", d.name)
		}
	}
	for name := range emitted {
		if !known[name] {
			t.Errorf("traced reps emit %s, which perLayer does not list", name)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := &hist{}
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	back := histFromSparse(h.sparse())
	if back.n != h.n || back.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("sparse round trip changed the histogram")
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile is not 0")
	}
}
