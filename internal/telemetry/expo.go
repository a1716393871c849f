package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus runs the collect hooks and renders the registry in the
// Prometheus text exposition format (version 0.0.4): one HELP/TYPE block
// per metric name, samples sorted by label set, histograms expanded into
// cumulative _bucket/_sum/_count series. The shared sim clock is exported
// as insure_sim_clock_seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	bw := bufio.NewWriter(w)
	writeClock(bw, r.Clock().Seconds())
	lastName := ""
	for _, m := range r.sortedMetrics() {
		mm := m.meta()
		if mm.name != lastName {
			lastName = mm.name
			bw.WriteString("# HELP ")
			bw.WriteString(mm.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(mm.help))
			bw.WriteByte('\n')
			bw.WriteString("# TYPE ")
			bw.WriteString(mm.name)
			bw.WriteByte(' ')
			bw.WriteString(mm.typ)
			bw.WriteByte('\n')
		}
		switch v := m.(type) {
		case *Counter:
			writeSample(bw, mm.id, float64(v.Value()))
		case *Gauge:
			writeSample(bw, mm.id, v.Value())
		case *FuncGauge:
			writeSample(bw, mm.id, v.Value())
		case *Histogram:
			writeHistogram(bw, v)
		}
	}
	return bw.Flush()
}

func writeClock(bw *bufio.Writer, secs float64) {
	bw.WriteString("# HELP insure_sim_clock_seconds Monotonic simulation clock shared with the logbook.\n")
	bw.WriteString("# TYPE insure_sim_clock_seconds gauge\n")
	writeSample(bw, "insure_sim_clock_seconds", secs)
}

func writeSample(bw *bufio.Writer, id string, v float64) {
	bw.WriteString(id)
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// writeHistogram expands one histogram into its exposition series. The
// le label is appended to (or merged into) the metric's own label set.
// _count is the +Inf bucket's total, which the text format requires it to
// equal: while a writer is mid-Observe, the separately loaded count trails
// the buckets by the observations in flight.
func writeHistogram(bw *bufio.Writer, h *Histogram) {
	mm := h.meta()
	_, cumulative := h.snapshotCounts()
	total := float64(cumulative[len(h.uppers)])
	for i, ub := range h.uppers {
		writeSample(bw, histogramSeriesID(mm, "_bucket", formatValue(ub)), float64(cumulative[i]))
	}
	writeSample(bw, histogramSeriesID(mm, "_bucket", "+Inf"), total)
	writeSample(bw, histogramSeriesID(mm, "_sum", ""), h.Sum())
	writeSample(bw, histogramSeriesID(mm, "_count", ""), total)
}

// histogramSeriesID builds name_suffix{labels...,le="ub"}; le is omitted
// when ub is empty (_sum and _count carry no le label).
func histogramSeriesID(mm *metricMeta, suffix, ub string) string {
	var b strings.Builder
	b.WriteString(mm.name)
	b.WriteString(suffix)
	if len(mm.labels) == 0 && ub == "" {
		return b.String()
	}
	b.WriteByte('{')
	for i, l := range mm.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if ub != "" {
		if len(mm.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(ub)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	// UpperBounds are the bucket upper bounds; Cumulative[i] counts
	// observations <= UpperBounds[i]. The final entry of Cumulative is
	// the +Inf bucket (== Count once writers quiesce).
	UpperBounds []float64 `json:"upper_bounds"`
	Cumulative  []int64   `json:"cumulative"`
	Sum         float64   `json:"sum"`
	Count       int64     `json:"count"`
}

// Snapshot is a point-in-time serialisable copy of the registry, suitable
// for embedding next to BENCH.json at the end of an experiment run.
type Snapshot struct {
	SimClockSeconds float64                      `json:"sim_clock_seconds"`
	Counters        map[string]int64             `json:"counters,omitempty"`
	Gauges          map[string]float64           `json:"gauges,omitempty"`
	Histograms      map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot runs the collect hooks and captures every instrument. Values
// are read atomically per instrument; the snapshot as a whole is taken
// without stopping writers.
func (r *Registry) Snapshot() Snapshot {
	r.collect()
	s := Snapshot{
		SimClockSeconds: r.Clock().Seconds(),
		Counters:        map[string]int64{},
		Gauges:          map[string]float64{},
		Histograms:      map[string]HistogramSnapshot{},
	}
	for _, m := range r.sortedMetrics() {
		mm := m.meta()
		switch v := m.(type) {
		case *Counter:
			s.Counters[mm.id] = v.Value()
		case *Gauge:
			s.Gauges[mm.id] = v.Value()
		case *FuncGauge:
			s.Gauges[mm.id] = v.Value()
		case *Histogram:
			count, cumulative := v.snapshotCounts()
			s.Histograms[mm.id] = HistogramSnapshot{
				UpperBounds: append([]float64(nil), v.uppers...),
				Cumulative:  cumulative,
				Sum:         v.Sum(),
				Count:       count,
			}
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
