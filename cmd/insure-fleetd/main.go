// Command insure-fleetd runs the fleet coordinator as a long-lived daemon:
// a federation of in-situ plants joined by a degraded WAN, with partitions,
// chunk loss, and site failures drawn deterministically from -seed.
//
// The daemon is durable. With -state-dir it journals the migration log under
// <dir>/miglog and snapshots every site's batteries, control state, and work
// queues at each day boundary. A killed daemon — SIGKILL, power cut, panic —
// resumes at next boot: the migration log is rolled back to the snapshot's
// sequence, the partial day is re-run, and because every chunk fate is a pure
// function of the seed and the sim clock, the resumed incarnation re-writes
// the byte-identical log the undisturbed run would have produced.
//
// An in-process watchdog wraps the day loop: a panic is caught, the world is
// torn down and rebuilt from the state dir through the same resume path a
// reboot would take, and the campaign continues. The telemetry registry and
// its listener belong to the process, not the world, so they outlive a
// rebuild.
//
// The daemon also serves an observability plane on -metrics-addr:
// GET /metrics is Prometheus text exposition (per-site SoC, migration and
// retransmit totals, reroutes, heals, the exactly-once guard counters), and
// GET /healthz reports ok/degraded with one check per WAN link — a
// partitioned or lost site degrades health until its heartbeat returns.
// -debug-addr, empty by default, serves net/http/pprof on its own
// listener. Like the metrics listener it belongs to the process and
// outlives watchdog rebuilds.
//
// Usage:
//
//	insure-fleetd -sites 3 -days 3 -state-dir /var/lib/insure-fleetd
//	insure-fleetd -sites 3 -drop 0.3 -partitions 1 -migration=false
//	insure-fleetd -debug-addr 127.0.0.1:6062 -days 30
//	curl http://127.0.0.1:9630/healthz
//	go tool pprof http://127.0.0.1:6062/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"insure/internal/fleet"
	"insure/internal/telemetry"
)

// daemonOpts is everything main parses; tests drive runDaemon with the same
// struct to prove kill/resume bit-identity in-process.
type daemonOpts struct {
	worldConfig
	MetricsAddr string
	DebugAddr   string // net/http/pprof listener; empty binds none
	KillAt      string // "day:tod" test hook, e.g. "1:15h"
	MaxRestarts int    // watchdog rebuilds after a panic, needs StateDir

	killFn func(day int, tod time.Duration) bool // test override for KillAt
}

// errPanicked marks a day loop that died under the watchdog.
var errPanicked = errors.New("day loop panicked")

// parseKillAt turns "day:tod" into an abort predicate, nil when unset.
func parseKillAt(spec string) (func(day int, tod time.Duration) bool, error) {
	if spec == "" {
		return nil, nil
	}
	dayStr, todStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("-kill-at wants day:tod, got %q", spec)
	}
	day, err := strconv.Atoi(dayStr)
	if err != nil {
		return nil, fmt.Errorf("bad -kill-at day: %w", err)
	}
	tod, err := time.ParseDuration(todStr)
	if err != nil {
		return nil, fmt.Errorf("bad -kill-at time: %w", err)
	}
	return func(d int, t time.Duration) bool {
		return d == day && t >= tod
	}, nil
}

// runAttempt drives one incarnation of the world under a panic guard.
func runAttempt(ctx context.Context, w *world, killAt func(int, time.Duration) bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanicked, r)
		}
	}()
	return w.run(ctx, killAt)
}

// runDaemon checks the flags, serves telemetry and pprof, builds the world
// (resuming from StateDir when a snapshot exists), and runs the campaign to
// completion under the watchdog.
// The registry and both listeners live as long as the process: a rebuilt
// world re-attaches to the registry, so scrapes keep answering at one
// address and counters keep counting across a rebuild, and a profile can
// span one. It returns the final report on success; on an abort the state
// dir holds everything the next incarnation needs.
func runDaemon(ctx context.Context, out io.Writer, opts daemonOpts) (*fleet.Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	killAt, err := parseKillAt(opts.KillAt)
	if err != nil {
		return nil, err
	}
	if opts.killFn != nil {
		killAt = opts.killFn
	}
	var reg *telemetry.Registry
	if opts.MetricsAddr != "" {
		reg = telemetry.NewRegistry()
		srv, err := telemetry.Listen(opts.MetricsAddr, reg.Mux())
		if err != nil {
			return nil, err
		}
		defer func() {
			if err := srv.Shutdown(); err != nil {
				fmt.Fprintf(out, "telemetry listener: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "telemetry on http://%s/metrics and /healthz (%d link checks)\n",
			srv.Addr(), opts.Sites)
	}
	if opts.DebugAddr != "" {
		ds, err := telemetry.Listen(opts.DebugAddr, telemetry.DebugMux())
		if err != nil {
			return nil, err
		}
		defer func() {
			if err := ds.Shutdown(); err != nil {
				fmt.Fprintf(out, "debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", ds.Addr())
	}
	for attempt := 0; ; attempt++ {
		w, err := newWorld(opts.worldConfig)
		if err != nil {
			return nil, err
		}
		if w.resumed {
			fmt.Fprintf(out, "resumed fleet state from %s (day %d, miglog seq %d)\n",
				opts.StateDir, w.day, w.coord.LogSeq())
		}
		if reg != nil {
			w.attachTelemetry(reg)
		}

		runErr := runAttempt(ctx, w, killAt)
		if runErr == nil {
			rep := w.coord.Report()
			if cerr := w.close(); cerr != nil {
				return nil, cerr
			}
			return rep, nil
		}
		w.close()
		if errors.Is(runErr, errPanicked) && opts.StateDir != "" && attempt < opts.MaxRestarts {
			fmt.Fprintf(out, "watchdog: %v; rebuilding from %s\n", runErr, opts.StateDir)
			continue
		}
		return nil, runErr
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-fleetd: ")
	var opts daemonOpts
	flag.Int64Var(&opts.Seed, "seed", 1, "campaign seed; weather, partitions, and chunk fates all derive from it")
	flag.IntVar(&opts.Sites, "sites", 3, "federated sites (site 0 is storm-parked)")
	flag.IntVar(&opts.Days, "days", 3, "campaign length in simulated days")
	flag.IntVar(&opts.Batteries, "batteries", 6, "battery units per site")
	flag.IntVar(&opts.Servers, "servers", 4, "servers per site")
	flag.Float64Var(&opts.JobGB, "job-gb", 40, "checkpoint image size per batch job (GB)")
	flag.BoolVar(&opts.Migration, "migration", true, "arm survival-mode job migration (false = observer fleet)")
	flag.Float64Var(&opts.Drop, "drop", 0.30, "WAN chunk drop probability")
	flag.Float64Var(&opts.Corrupt, "corrupt", 0.05, "WAN chunk corruption probability")
	flag.IntVar(&opts.PartitionsPerDay, "partitions", 1, "scheduled WAN partitions per day (0 disables)")
	flag.StringVar(&opts.StateDir, "state-dir", "", "journal fleet state to this directory; a restarted daemon resumes the campaign bit-identically")
	flag.StringVar(&opts.MetricsAddr, "metrics-addr", "127.0.0.1:9630", "HTTP listen address for /metrics and /healthz (empty disables)")
	flag.StringVar(&opts.DebugAddr, "debug-addr", "", "HTTP listen address for net/http/pprof (empty disables)")
	flag.StringVar(&opts.KillAt, "kill-at", "", "abort at day:tod (e.g. 1:15h); test hook for resume drills")
	flag.IntVar(&opts.MaxRestarts, "max-restarts", 3, "watchdog rebuilds after a panic before giving up (needs -state-dir)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := runDaemon(ctx, os.Stdout, opts)
	switch {
	case errors.Is(err, errKilled):
		fmt.Println("killed by -kill-at; state dir holds the last day boundary")
		return
	case errors.Is(err, context.Canceled):
		log.Print("signal received; state dir holds the last day boundary")
		return
	case err != nil:
		log.Fatal(err)
	}
	fmt.Println(rep)
}
