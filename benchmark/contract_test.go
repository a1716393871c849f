package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkDoc is BENCHMARK.json; decoding rejects any other key.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json lists exactly
// the workloads this program runs and exactly the metrics it emits, with
// the units it prints, and that every name and bound is well formed.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Command) == 0 || len(doc.Paths) == 0 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("command, paths or run_seconds malformed: %v %v %d", doc.Command, doc.Paths, doc.RunSeconds)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program runs %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}

	seen := map[string]bool{}
	name := func(n, unit, better string) {
		if !metricName.MatchString(n) || !unitName.MatchString(unit) {
			t.Errorf("malformed metric %q or unit %q", n, unit)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", n, better)
		}
		if seen[n] {
			t.Errorf("%s listed twice", n)
		}
		seen[n] = true
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		name(m.Name, m.Unit, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s, program emits %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program emits %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name, m.Unit, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s, program emits %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
