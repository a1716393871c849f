package main

import (
	"reflect"
	"testing"
)

// TestScalingGateSizedByProcs pins the scaling gate to the parallelism the
// runtime grants (GOMAXPROCS): the worker ladder and the verdict both follow
// procs, so a process held to one P records a skip instead of failing a
// 2-worker speedup it could never reach. Pass and fail cases straddle the
// 0.7·N requirement.
func TestScalingGateSizedByProcs(t *testing.T) {
	cases := []struct {
		name    string
		procs   int
		speedup float64 // measured at procs workers
		ladder  []int
		want    scalingGate
	}{
		{"1 proc", 1, 0.99, []int{1},
			scalingGate{Status: gateSkipped1CPU, Workers: 1}},
		{"2 procs pass", 2, 1.45, []int{1, 2},
			scalingGate{Status: gatePassed, Workers: 2, RequiredSpeedup: 0.7 * 2, MeasuredSpeedup: 1.45}},
		{"2 procs fail", 2, 0.99, []int{1, 2},
			scalingGate{Status: gateFailed, Workers: 2, RequiredSpeedup: 0.7 * 2, MeasuredSpeedup: 0.99}},
		{"4 procs pass", 4, 2.85, []int{1, 2, 4},
			scalingGate{Status: gatePassed, Workers: 4, RequiredSpeedup: 0.7 * 4, MeasuredSpeedup: 2.85}},
		{"4 procs fail", 4, 2.75, []int{1, 2, 4},
			scalingGate{Status: gateFailed, Workers: 4, RequiredSpeedup: 0.7 * 4, MeasuredSpeedup: 2.75}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ladder := scalingWorkerCounts(tc.procs)
			if !reflect.DeepEqual(ladder, tc.ladder) {
				t.Fatalf("scalingWorkerCounts(%d) = %v, want %v", tc.procs, ladder, tc.ladder)
			}
			var cs campaignScaling
			for _, w := range ladder {
				pt := scalingPoint{Workers: w, Speedup: 1}
				if w == tc.procs {
					pt.Speedup = tc.speedup
				}
				cs.Points = append(cs.Points, pt)
			}
			if got := evaluateGate(cs, tc.procs); got != tc.want {
				t.Errorf("evaluateGate at %d procs = %+v, want %+v", tc.procs, got, tc.want)
			}
		})
	}
}

// TestScalingMedianAndOrder pins the repeated measurement: the worker
// counts take turns, ascending then descending, and each row reports the
// median of its runs with their min and max, whatever order they came in.
func TestScalingMedianAndOrder(t *testing.T) {
	if got, want := scalingOrder([]int{1, 2}, 3), []int{1, 2, 2, 1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("scalingOrder([1 2], 3) = %v, want %v", got, want)
	}
	if got, want := scalingOrder([]int{1, 2, 4}, 2), []int{1, 2, 4, 4, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("scalingOrder([1 2 4], 2) = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		name        string
		secs        []float64
		med, lo, hi float64
	}{
		{"one run", []float64{0.7}, 0.7, 0.7, 0.7},
		{"three sorted", []float64{0.4, 0.5, 0.9}, 0.5, 0.4, 0.9},
		{"three, slow first", []float64{1.6, 0.44, 0.46}, 0.46, 0.44, 1.6},
		{"three, slow last", []float64{0.45, 0.43, 2.0}, 0.45, 0.43, 2.0},
		{"four", []float64{0.8, 0.2, 0.6, 0.4}, 0.5, 0.2, 0.8},
		{"ties", []float64{0.3, 0.3, 0.1}, 0.3, 0.1, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]float64(nil), tc.secs...)
			med, lo, hi := spread(tc.secs)
			if med != tc.med || lo != tc.lo || hi != tc.hi {
				t.Errorf("spread(%v) = %v, %v, %v; want median %v, min %v, max %v", tc.secs, med, lo, hi, tc.med, tc.lo, tc.hi)
			}
			if !reflect.DeepEqual(tc.secs, in) {
				t.Errorf("spread reordered its input: %v, was %v", tc.secs, in)
			}
		})
	}
	// A single stalled run must not fail the gate: one two-worker run
	// stalls to 2.1 s, and the median speedup is still 0.76/0.45 = 1.69x.
	one, _, _ := spread([]float64{0.76, 0.75, 0.78})
	two, _, _ := spread([]float64{0.44, 2.1, 0.45})
	cs := campaignScaling{Points: []scalingPoint{{Workers: 1, Speedup: 1}, {Workers: 2, Speedup: one / two}}}
	if g := evaluateGate(cs, 2); g.Status != gatePassed {
		t.Errorf("gate on median speedup %.2fx = %+v, want passed", one/two, g)
	}
}
