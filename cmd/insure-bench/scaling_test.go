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
