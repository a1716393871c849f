package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insure/internal/wan"
)

// fleetdFixture is the resume-drill campaign: three sites, three days, a
// lossy WAN, and two fixed six-hour partitions so tests can aim the kill
// inside a known window. Explicit partitions override the seeded planner.
func fleetdFixture(seed int64, dir string) daemonOpts {
	return daemonOpts{worldConfig: worldConfig{
		Seed: seed, Sites: 3, Days: 3,
		Batteries: 6, Servers: 4, JobGB: 40,
		Migration: true, Drop: 0.30, Corrupt: 0.05,
		partitions: []wan.Outage{
			{Site: 1, Day: 0, From: 9 * time.Hour, To: 15 * time.Hour},
			{Site: 0, Day: 1, From: 10 * time.Hour, To: 16 * time.Hour},
		},
		StateDir: dir,
	}}
}

// miglogBytes reads the raw migration-log file under a state dir.
func miglogBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "miglog", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetdKillResumeBitIdentical is the daemon's acceptance drill: kill
// the campaign at day 1, 12h — in the middle of the day-1 partition, with
// transfers in flight and a site unreachable — then boot a fresh incarnation
// on the same state dir. The resumed run must finish with the byte-identical
// migration log and the identical final report the undisturbed run produces.
func TestFleetdKillResumeBitIdentical(t *testing.T) {
	ctx := context.Background()

	refDir := t.TempDir()
	refRep, err := runDaemon(ctx, new(bytes.Buffer), fleetdFixture(901, refDir))
	if err != nil {
		t.Fatal(err)
	}
	refLog := miglogBytes(t, refDir)
	if len(refLog) == 0 {
		t.Fatal("reference run wrote an empty migration log")
	}

	killDir := t.TempDir()
	killOpts := fleetdFixture(901, killDir)
	killOpts.KillAt = "1:12h"
	if _, err := runDaemon(ctx, new(bytes.Buffer), killOpts); err != errKilled {
		t.Fatalf("kill-at run: want errKilled, got %v", err)
	}

	var out bytes.Buffer
	gotRep, err := runDaemon(ctx, &out, fleetdFixture(901, killDir))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed fleet state") {
		t.Errorf("resumed run did not announce the resume:\n%s", out.String())
	}
	if got, want := gotRep.String(), refRep.String(); got != want {
		t.Errorf("resumed report differs from undisturbed run\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Equal(miglogBytes(t, killDir), refLog) {
		t.Errorf("resumed migration log is not byte-identical to the undisturbed run (%d vs %d bytes)",
			len(miglogBytes(t, killDir)), len(refLog))
	}
	tot := gotRep.Totals
	if tot.JobsDoubleRun != 0 || tot.SplitBrain != 0 {
		t.Fatalf("exactly-once guards tripped across the resume: %+v", tot)
	}
}

// TestFleetdKillBeforeFirstSnapshotColdStarts kills during day 0, before any
// day-boundary snapshot exists: the next boot must cold-start — truncating
// the partial day-0 records — and still converge on the reference run.
func TestFleetdKillBeforeFirstSnapshotColdStarts(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-start drill skipped in -short")
	}
	ctx := context.Background()

	refDir := t.TempDir()
	refRep, err := runDaemon(ctx, new(bytes.Buffer), fleetdFixture(902, refDir))
	if err != nil {
		t.Fatal(err)
	}

	killDir := t.TempDir()
	killOpts := fleetdFixture(902, killDir)
	killOpts.KillAt = "0:14h"
	if _, err := runDaemon(ctx, new(bytes.Buffer), killOpts); err != errKilled {
		t.Fatalf("kill-at run: want errKilled, got %v", err)
	}

	gotRep, err := runDaemon(ctx, new(bytes.Buffer), fleetdFixture(902, killDir))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gotRep.String(), refRep.String(); got != want {
		t.Errorf("cold-started report differs from undisturbed run\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Equal(miglogBytes(t, killDir), miglogBytes(t, refDir)) {
		t.Error("cold-started migration log is not byte-identical to the undisturbed run")
	}
}

// TestFleetdWatchdogRecoversFromPanic panics the day loop mid-partition via
// the injected kill hook; the watchdog must rebuild the world from the state
// dir in-process and finish the campaign identical to the reference.
func TestFleetdWatchdogRecoversFromPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog drill skipped in -short")
	}
	ctx := context.Background()

	refDir := t.TempDir()
	refRep, err := runDaemon(ctx, new(bytes.Buffer), fleetdFixture(903, refDir))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := fleetdFixture(903, dir)
	opts.MaxRestarts = 1
	fired := false
	opts.killFn = func(day int, tod time.Duration) bool {
		if !fired && day == 1 && tod >= 12*time.Hour {
			fired = true
			panic("injected day-loop fault")
		}
		return false
	}
	var out bytes.Buffer
	gotRep, err := runDaemon(ctx, &out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "watchdog:") {
		t.Errorf("watchdog never reported the rebuild:\n%s", out.String())
	}
	if got, want := gotRep.String(), refRep.String(); got != want {
		t.Errorf("post-panic report differs from undisturbed run\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Equal(miglogBytes(t, dir), miglogBytes(t, refDir)) {
		t.Error("post-panic migration log is not byte-identical to the undisturbed run")
	}
}

// TestFleetdSignalAbortPreservesState cancels the context mid-day — the
// signal path — and checks the daemon comes back from the state dir.
func TestFleetdSignalAbortPreservesState(t *testing.T) {
	if testing.Short() {
		t.Skip("signal drill skipped in -short")
	}
	dir := t.TempDir()
	opts := fleetdFixture(904, dir)

	ctx, cancel := context.WithCancel(context.Background())
	opts.killFn = func(day int, tod time.Duration) bool {
		if day == 1 && tod >= 11*time.Hour {
			cancel()
		}
		return false
	}
	_, err := runDaemon(ctx, new(bytes.Buffer), opts)
	if err != context.Canceled {
		t.Fatalf("cancelled run: want context.Canceled, got %v", err)
	}

	opts = fleetdFixture(904, dir)
	rep, err := runDaemon(context.Background(), new(bytes.Buffer), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.JobsDoubleRun != 0 || rep.Totals.SplitBrain != 0 {
		t.Fatalf("guards tripped across a signal abort: %+v", rep.Totals)
	}
}

// TestParseKillAt pins the flag grammar.
func TestParseKillAt(t *testing.T) {
	if fn, err := parseKillAt(""); err != nil || fn != nil {
		t.Errorf("empty spec: want nil predicate and nil error, got err=%v", err)
	}
	fn, err := parseKillAt("1:15h")
	if err != nil {
		t.Fatal(err)
	}
	if fn(0, 20*time.Hour) || fn(1, 14*time.Hour) || !fn(1, 15*time.Hour) {
		t.Error("kill predicate fired at the wrong moment")
	}
	for _, bad := range []string{"15h", "x:15h", "1:xyz"} {
		_, err := parseKillAt(bad)
		if err == nil {
			t.Errorf("parseKillAt(%q): want error", bad)
		} else if strings.HasPrefix(err.Error(), "insure-fleetd: ") {
			t.Errorf("parseKillAt(%q): %q repeats the name log.SetPrefix adds", bad, err)
		}
	}
}

// TestFleetdTelemetrySurvivesWatchdogRebuild panics the day loop and checks
// that the registry and its listener outlive the rebuilt world: /healthz at
// the address printed at boot answers before and after the rebuild, with
// one link check per site.
func TestFleetdTelemetrySurvivesWatchdogRebuild(t *testing.T) {
	opts := fleetdFixture(905, t.TempDir())
	opts.Days = 2
	opts.MetricsAddr = "127.0.0.1:0"
	opts.MaxRestarts = 1
	var out bytes.Buffer
	var url string
	checkHealthz := func(when string) {
		if url == "" {
			line, _, _ := strings.Cut(out.String(), "\n")
			addr, ok := strings.CutPrefix(line, "telemetry on http://")
			addr, _, _ = strings.Cut(addr, "/")
			if !ok || addr == "" {
				t.Fatalf("no telemetry address at boot:\n%s", out.String())
			}
			url = "http://" + addr + "/healthz"
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("%s the rebuild: %v", when, err)
		}
		defer resp.Body.Close()
		var body struct{ Checks map[string]string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s the rebuild: %v", when, err)
		}
		links := 0
		for name := range body.Checks {
			if strings.HasSuffix(name, "-link") {
				links++
			}
		}
		if links != opts.Sites {
			t.Errorf("%s the rebuild: %d link checks, want %d: %v", when, links, opts.Sites, body.Checks)
		}
	}
	checked, fired, rebuilt := false, false, false
	opts.killFn = func(day int, tod time.Duration) bool {
		switch {
		case !checked:
			checked = true
			checkHealthz("before")
		case !fired && day == 1 && tod >= 12*time.Hour:
			fired = true
			panic("injected day-loop fault")
		case fired && !rebuilt:
			rebuilt = true
			checkHealthz("after")
		}
		return false
	}
	if _, err := runDaemon(context.Background(), &out, opts); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatalf("the world was never rebuilt:\n%s", out.String())
	}
}

// TestFleetdValidatesFlagsBeforeBinding holds the -metrics-addr and
// -debug-addr address and starts the daemon with a NaN -job-gb: the error
// must name the flag, not the taken port, and no listener may have been
// reported.
func TestFleetdValidatesFlagsBeforeBinding(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	opts := fleetdFixture(907, "")
	opts.MetricsAddr = held.Addr().String()
	opts.DebugAddr = held.Addr().String()
	opts.JobGB = math.NaN()
	var out bytes.Buffer
	_, err = runDaemon(context.Background(), &out, opts)
	if err == nil || !strings.Contains(err.Error(), "-job-gb") {
		t.Errorf("err = %v, want an error naming -job-gb", err)
	}
	if strings.Contains(out.String(), "telemetry on") || strings.Contains(out.String(), "pprof on") {
		t.Errorf("a listener bound before the flags were checked:\n%s", out.String())
	}
}

// TestDebugAddrServesPprof runs a one-day campaign with -debug-addr set:
// pprof answers on the debug listener while the day loop runs, and the
// listener is shut down when runDaemon returns. With -debug-addr empty no
// debug listener is bound.
func TestDebugAddrServesPprof(t *testing.T) {
	opts := fleetdFixture(908, "")
	opts.Days = 1
	opts.DebugAddr = "127.0.0.1:0"
	var out bytes.Buffer
	url := ""
	opts.killFn = func(int, time.Duration) bool {
		if url != "" {
			return false
		}
		_, rest, ok := strings.Cut(out.String(), "pprof on http://")
		addr, _, _ := strings.Cut(rest, "/")
		if !ok || addr == "" {
			t.Fatalf("no pprof address before the day loop:\n%s", out.String())
		}
		url = "http://" + addr + "/debug/pprof/"
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Errorf("GET %s = %d, want 200 with the goroutine profile listed", url, resp.StatusCode)
		}
		return false
	}
	if _, err := runDaemon(context.Background(), &out, opts); err != nil {
		t.Fatal(err)
	}
	if url == "" {
		t.Fatal("the day loop never polled its abort hook")
	}
	if resp, err := http.Get(url); err == nil {
		defer resp.Body.Close()
		t.Errorf("GET %s answered %d after runDaemon returned", url, resp.StatusCode)
	}

	opts = fleetdFixture(908, "")
	opts.Days = 1
	out.Reset()
	if _, err := runDaemon(context.Background(), &out, opts); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "pprof on") {
		t.Errorf("empty -debug-addr bound a debug listener:\n%s", out.String())
	}
}

// TestNewWorldRejectsBadJobSize: a NaN, infinite, zero or negative -job-gb
// is refused with the flag named, and without the daemon's name, which
// log.SetPrefix already prints.
func TestNewWorldRejectsBadJobSize(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -5} {
		cfg := fleetdFixture(906, "").worldConfig
		cfg.JobGB = bad
		_, err := newWorld(cfg)
		if err == nil || !strings.Contains(err.Error(), "-job-gb") {
			t.Errorf("-job-gb %v: err = %v, want an error naming -job-gb", bad, err)
		} else if strings.HasPrefix(err.Error(), "insure-fleetd: ") {
			t.Errorf("-job-gb %v: %q repeats the name log.SetPrefix adds", bad, err)
		}
	}
}
