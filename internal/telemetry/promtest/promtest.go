// Package promtest is a strict validating parser for the Prometheus text
// exposition format (version 0.0.4), shared by the telemetry package's own
// tests and the daemons' endpoint tests: the acceptance bar for /metrics is
// "valid Prometheus text format, verified by a parser test", so the parser
// refuses anything a real scraper would.
//
// Like net/http/httptest, this package exists only to be imported from
// tests; it takes testing.TB so parse failures read as test failures at the
// offending line.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// Sample is one parsed series sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Parse validates the full document and returns the samples. It enforces:
// HELP/TYPE precede their samples, TYPE is a known kind, sample names match
// their TYPE block (modulo histogram suffixes), no duplicate series,
// histogram buckets are cumulative and agree with _count, and every value
// parses as a float.
func Parse(t testing.TB, r io.Reader) []Sample {
	t.Helper()
	types := map[string]string{}
	seen := map[string]bool{}
	var samples []Sample
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(text, "# HELP "), " ", 2)
			if len(parts) < 1 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", line, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // free-form comment
		}
		m := sampleRe.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", line, text)
		}
		name, labelBody, valText := m[1], m[3], m[4]
		labels := map[string]string{}
		if labelBody != "" {
			for _, pair := range splitLabelPairs(t, line, labelBody) {
				lm := labelPairRe.FindStringSubmatch(pair)
				if lm == nil || !labelNameRe.MatchString(lm[1]) {
					t.Fatalf("line %d: malformed label pair %q", line, pair)
				}
				if _, dup := labels[lm[1]]; dup {
					t.Fatalf("line %d: duplicate label %q", line, lm[1])
				}
				labels[lm[1]] = lm[2]
			}
		}
		var v float64
		switch valText {
		case "+Inf", "Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		case "NaN":
			v = math.NaN()
		default:
			var err error
			v, err = strconv.ParseFloat(valText, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", line, valText, err)
			}
		}
		base := histogramBase(name)
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q has no preceding TYPE", line, name)
			} else if types[base] != "histogram" && types[base] != "summary" {
				t.Fatalf("line %d: suffixed sample %q under non-histogram TYPE %q", line, name, types[base])
			}
		}
		key := m[1] + "{" + labelBody + "}"
		if seen[key] {
			t.Fatalf("line %d: duplicate series %q", line, key)
		}
		seen[key] = true
		samples = append(samples, Sample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checkHistogramInvariants(t, types, samples)
	return samples
}

// splitLabelPairs splits k="v",k2="v2" at top-level commas (commas inside
// quoted values don't split).
func splitLabelPairs(t testing.TB, line int, body string) []string {
	t.Helper()
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range body {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(c)
		case c == '\\' && inQuote:
			escaped = true
			cur.WriteRune(c)
		case c == '"':
			inQuote = !inQuote
			cur.WriteRune(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if inQuote {
		t.Fatalf("line %d: unterminated quote in label body %q", line, body)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func histogramBase(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// checkHistogramInvariants verifies every histogram's bucket series is
// cumulative, ends in +Inf, and agrees with its _count.
func checkHistogramInvariants(t testing.TB, types map[string]string, samples []Sample) {
	t.Helper()
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		// Group buckets by their non-le label signature.
		bucketsBySig := map[string][]Sample{}
		countBySig := map[string]float64{}
		for _, s := range samples {
			sig := LabelSig(s.Labels)
			switch s.Name {
			case name + "_bucket":
				bucketsBySig[sig] = append(bucketsBySig[sig], s)
			case name + "_count":
				countBySig[sig] = s.Value
			}
		}
		for sig, buckets := range bucketsBySig {
			var prev float64
			var last Sample
			for _, b := range buckets { // exposition order is ascending le
				if b.Value < prev {
					t.Errorf("histogram %s%s: bucket counts not cumulative", name, sig)
				}
				prev = b.Value
				last = b
			}
			if last.Labels["le"] != "+Inf" {
				t.Errorf("histogram %s%s: final bucket le=%q, want +Inf", name, sig, last.Labels["le"])
			}
			if c, ok := countBySig[sig]; ok && last.Value != c {
				t.Errorf("histogram %s%s: +Inf bucket %v != count %v", name, sig, last.Value, c)
			}
		}
	}
}

// LabelSig renders the labels minus le, for grouping histogram series and
// building lookup keys.
func LabelSig(labels map[string]string) string {
	var parts []string
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", k, v))
	}
	if len(parts) == 0 {
		return ""
	}
	// Deterministic order.
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ScrapeTimeout bounds one Scrape. A collect hook deadlocked on a lock
// the ticking goroutine holds never answers, and that must fail the test,
// not hang it.
const ScrapeTimeout = 10 * time.Second

// Scrape fetches url and parses the body as a Prometheus exposition,
// checking the status code and content type on the way. It fails the test
// when the endpoint does not answer within ScrapeTimeout.
func Scrape(t testing.TB, url string) []Sample {
	t.Helper()
	client := http.Client{Timeout: ScrapeTimeout}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	return Parse(t, resp.Body)
}
