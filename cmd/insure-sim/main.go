// Command insure-sim runs one simulated day of the InSURE prototype and
// prints the operating report — optionally for both power managers side by
// side, and optionally dumping the solar trace or the recorder series as
// CSV.
//
// Usage:
//
//	insure-sim -weather sunny -workload seismic -policy insure
//	insure-sim -weather rainy -workload video -compare
//	insure-sim -peak 1000 -dump-trace solar.csv
//	insure-sim -weather rainy -workload video -survival -genset
//	insure-sim -storm-days 3 -survival -genset
//	insure-sim -fleet 3 -storm-days 3 -storm-site 0 -migrate
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"insure/internal/baseline"
	"insure/internal/chaos"
	"insure/internal/core"
	"insure/internal/faults"
	"insure/internal/genset"
	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
	"insure/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-sim: ")

	weather := flag.String("weather", "sunny", "sky model: sunny, cloudy, rainy")
	wl := flag.String("workload", "seismic", "workload: seismic, video")
	policy := flag.String("policy", "insure", "power manager: insure, baseline")
	compare := flag.Bool("compare", false, "run both managers on the identical trace")
	seed := flag.Int64("seed", 2015, "trace seed")
	peak := flag.Float64("peak", 0, "scale trace to this peak power (W); 0 = natural")
	energy := flag.Float64("energy", 0, "scale trace to this total energy (kWh); 0 = natural")
	batteries := flag.Int("batteries", 6, "battery units in the e-Buffer")
	servers := flag.Int("servers", 4, "server nodes in the cluster")
	dumpTrace := flag.String("dump-trace", "", "write the solar trace CSV to this path and exit")
	fromTrace := flag.String("trace", "", "replay a recorded solar trace CSV instead of synthesising one")
	dumpFrames := flag.String("dump-frames", "", "write the recorder series CSV to this path")
	dumpLog := flag.String("dump-log", "", "write the operational event log to this path")
	faultSpec := flag.String("faults", "", "inject faults: comma-separated kind[:unit]@time[:magnitude] events, e.g. bat:2@12h30m:0.6,relay-open:4@13h (kinds: stick, drift, relay-open, relay-weld, bat)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live /metrics and /healthz on this address during the run (single-policy runs only)")
	dumpTelemetry := flag.String("dump-telemetry", "", "write the end-of-run telemetry snapshot JSON to this path")
	stateDir := flag.String("state-dir", "", "journal the control-plane state to this directory (insure policy only); enables crash recovery")
	killSpec := flag.String("kill-at", "", "comma-separated sim times (e.g. 12h,15h30m) at which to hard-kill the controller and recover it from -state-dir")
	tornKill := flag.Bool("torn-kill", false, "tear the journal tail at each -kill-at point, simulating a crash mid-commit")
	survival := flag.Bool("survival", false, "arm the energy-emergency survivability ladder (insure policy only)")
	gensetFit := flag.Bool("genset", false, "fit a diesel backup generator for last-resort dispatch")
	stormDays := flag.Int("storm-days", 0, "run an N-day chaos storm campaign instead of a single day and print its report")
	fleetSize := flag.Int("fleet", 0, "federate N sites under one coordinator and park the storm over -storm-site (requires N >= 2)")
	stormSite := flag.Int("storm-site", 0, "fleet site index the storm sits over")
	migrate := flag.Bool("migrate", false, "arm surplus-driven job migration and checkpoint shipping across the fleet (implies per-site survival ladders)")
	fleetLog := flag.String("fleet-log", "", "journal the coordinator's migration log to this directory")
	flag.Parse()

	// Validate flag combinations before doing any work: the three run
	// shapes (single day, storm campaign, federated fleet) each consume a
	// different flag subset, and a flag the chosen shape ignores is a user
	// error worth naming, not something to drop silently.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *fleetSize == 0 {
		delete(set, "fleet") // explicit -fleet 0 means "no fleet"
	}
	if *stormDays == 0 {
		delete(set, "storm-days")
	}
	if err := validateFlags(set); err != nil {
		log.Fatal(err)
	}

	faultPlan, ferr := faults.Parse(*faultSpec)
	if ferr == nil {
		ferr = faultPlan.CheckUnits(*batteries)
	}
	if ferr != nil {
		log.Fatal(ferr)
	}
	if *telemetryAddr != "" && *compare {
		log.Fatal("-telemetry-addr serves one registry; use it without -compare")
	}
	kills, kerr := parseKills(*killSpec)
	if kerr != nil {
		log.Fatal(kerr)
	}
	if len(kills) > 0 && *stateDir == "" {
		log.Fatal("-kill-at requires -state-dir: recovery needs the journal")
	}
	if *stateDir != "" && (*compare || *policy != "insure") {
		log.Fatal("-state-dir journals the insure control plane; use -policy insure without -compare")
	}
	if *survival && (*compare || *policy != "insure") {
		log.Fatal("-survival arms the insure control plane; use -policy insure without -compare")
	}

	if *fleetSize > 0 {
		days := *stormDays
		if days == 0 {
			days = 1
		}
		fcfg := chaos.DefaultSiteLossConfig(*seed)
		fcfg.Days = days
		fcfg.Sites = *fleetSize
		fcfg.StormSite = *stormSite
		fcfg.Batteries = *batteries
		fcfg.Servers = *servers
		fcfg.Migration = *migrate
		fcfg.LogDir = *fleetLog
		rep, err := chaos.RunSiteLoss(fcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
		return
	}

	if *stormDays > 0 {
		scfg := chaos.DefaultStormConfig(*seed)
		scfg.Days = *stormDays
		scfg.Batteries = *batteries
		scfg.Servers = *servers
		scfg.Survival = *survival
		scfg.Genset = *gensetFit
		rep, err := chaos.RunStorm(scfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
		return
	}

	cond := solar.Sunny
	switch *weather {
	case "sunny":
	case "cloudy":
		cond = solar.Cloudy
	case "rainy":
		cond = solar.Rainy
	default:
		log.Fatalf("unknown weather %q", *weather)
	}
	var tr *trace.Trace
	if *fromTrace != "" {
		f, err := os.Open(*fromTrace)
		if err != nil {
			log.Fatal(err)
		}
		tr, err = trace.ReadCSV(f)
		_ = f.Close() // read-only: nothing to flush, and ReadCSV reported any read error
		if err != nil {
			log.Fatal(err)
		}
	} else {
		tr = trace.Synthesize(cond, *seed, time.Second)
	}
	if *peak > 0 {
		tr = tr.ScaleToPeak(units.Watt(*peak))
	} else if *energy > 0 {
		tr = tr.ScaleToEnergy(units.KiloWattHour(*energy))
	}

	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d samples (avg %v, %.1f kWh) to %s\n",
			tr.Len(), tr.Average(), tr.TotalEnergy().KWh(), *dumpTrace)
		return
	}

	mkSink := func() sim.Sink {
		switch *wl {
		case "seismic":
			return sim.NewSeismicSink()
		case "video":
			return sim.NewVideoSink()
		default:
			log.Fatalf("unknown workload %q", *wl)
			return nil
		}
	}
	// setup builds one fully-wired run; the returned System and Manager are
	// also recorded in *out/*outMgr so the dump flags and the fault report
	// can read them afterwards.
	// The Systems deliberately escape the campaign cells (dump/report read
	// them afterwards), so these runs are NOT Transient and ignore the
	// worker arena.
	setup := func(name string, out **sim.System, outMgr *sim.Manager, outReg **telemetry.Registry) func(*sim.Arena) (*sim.System, sim.Manager, error) {
		return func(*sim.Arena) (*sim.System, sim.Manager, error) {
			cfg := sim.DefaultConfig(tr)
			cfg.BatteryCount = *batteries
			cfg.ServerCount = *servers
			if *gensetFit {
				cfg.Secondary = genset.New(genset.DieselParams())
			}
			sys, err := sim.New(cfg, mkSink())
			if err != nil {
				return nil, nil, err
			}
			*out = sys
			if len(faultPlan) > 0 {
				in := faults.NewInjector(faultPlan, faults.Target{Panel: sys.Panel})
				sys.SetTickHook(func(tod time.Duration) { in.Tick(tod) })
			}
			var mgr sim.Manager = core.New(mgrConfig(*survival), cfg.BatteryCount)
			if name == "baseline" {
				mgr = baseline.New(baseline.DefaultConfig())
			}
			*outMgr = mgr
			if *telemetryAddr != "" || *dumpTelemetry != "" {
				reg := telemetry.NewRegistry()
				sys.AttachTelemetry(reg)
				if c, ok := mgr.(*core.Manager); ok {
					c.AttachTelemetry(reg)
				}
				*outReg = reg
			}
			return sys, mgr, nil
		}
	}
	dump := func(name string, sys *sim.System, reg *telemetry.Registry) {
		if *dumpFrames != "" {
			path := *dumpFrames
			if *compare {
				path = name + "-" + path
			}
			if err := writeFrames(path, sys); err != nil {
				log.Fatal(err)
			}
		}
		if *dumpLog != "" {
			path := *dumpLog
			if *compare {
				path = name + "-" + path
			}
			// Durable write: the log is the forensic record, so it is
			// fsynced before close and close errors are fatal.
			if err := sys.Log.WriteTextFile(path); err != nil {
				log.Fatal(err)
			}
		}
		if *dumpTelemetry != "" && reg != nil {
			path := *dumpTelemetry
			if *compare {
				path = name + "-" + path
			}
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := reg.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
	run := func(name string) (sim.Result, sim.Manager) {
		var sys *sim.System
		var mgr sim.Manager
		var reg *telemetry.Registry
		s, m, err := setup(name, &sys, &mgr, &reg)(nil)
		if err != nil {
			log.Fatal(err)
		}
		// The day ticks under mu, which a live endpoint's scrapes take too.
		var mu sync.Mutex
		if reg != nil && *telemetryAddr != "" {
			srv, err := serveLive(reg, *telemetryAddr, &mu)
			if err != nil {
				log.Fatal(err)
			}
			defer func() {
				if err := srv.Shutdown(); err != nil {
					log.Printf("warning: telemetry listener: %v", err)
				}
			}()
			fmt.Printf("telemetry on http://%s/metrics and /healthz\n", srv.Addr())
		}
		var res sim.Result
		if *stateDir != "" {
			res, m = runJournaled(s, m.(*core.Manager), kills, *stateDir, *tornKill, &mu)
		} else {
			res = runDay(s, m, &mu)
		}
		dump(name, sys, reg)
		return res, m
	}

	report := func(r sim.Result, mgr sim.Manager) {
		fmt.Printf("%-10s %s day, %s workload\n", r.Manager, *weather, r.Workload)
		fmt.Printf("  uptime           %.1f%%\n", r.UptimeFrac*100)
		fmt.Printf("  processed        %.1f GB (%.2f GB/h)\n", r.ProcessedGB, r.Throughput)
		fmt.Printf("  mean delay       %.1f min\n", r.DelayMin)
		fmt.Printf("  e-buffer avail   %.0f Wh (mean stored)\n", float64(r.EnergyAvail))
		fmt.Printf("  service life     %.1f yr projected\n", r.ServiceLifeYear)
		fmt.Printf("  perf per Ah      %.2f GB/Ah\n", r.PerfPerAh)
		fmt.Printf("  energy           load %.2f kWh, effective %.2f kWh, harvested %.2f kWh, curtailed %.2f kWh\n",
			r.LoadKWh, r.EffectiveKWh, r.HarvestedKWh, r.CurtailedKWh)
		fmt.Printf("  events           %d power ops, %d on/off cycles, %d VM ops, %d brownouts\n",
			r.PowerOps, r.OnOffCycles, r.VMOps, r.Brownouts)
		fmt.Printf("  vm state         %d checkpointed (saved), %d lost\n", r.VMsSaved, r.VMsLost)
		fmt.Printf("  battery          min %.2f V, end %.2f V, stddev %.2f, wear %.2f Ah/unit\n",
			float64(r.MinVolt), float64(r.EndVolt), r.VoltStdDev, float64(r.WearAhPerUnit))
		if r.GenStarts > 0 || *gensetFit {
			fmt.Printf("  genset           %d starts, %.2f run-hours, %.2f kWh delivered (%.2f kWh wasted), fuel $%.2f\n",
				r.GenStarts, r.GenRunHours, r.GenKWh, r.GenWastedKWh, r.GenFuelCost)
		}
		// The journaled wrapper embeds the manager, so a plain type switch on
		// *core.Manager would miss it; this interface catches both.
		if c, ok := mgr.(interface {
			FaultEvents() []core.FaultEvent
			SurvivalEnabled() bool
			Mode() core.OpMode
			ModeTransitions() int
		}); ok {
			if c.SurvivalEnabled() {
				fmt.Printf("  survival         %d ladder transitions, final mode %s\n",
					c.ModeTransitions(), c.Mode())
			}
			for _, ev := range c.FaultEvents() {
				fmt.Printf("  quarantined      unit %d at %v: %s\n", ev.Unit, ev.At, ev.Reason)
			}
		}
		fmt.Println()
	}

	if *compare {
		names := []string{"insure", "baseline"}
		systems := make([]*sim.System, len(names))
		managers := make([]sim.Manager, len(names))
		registries := make([]*telemetry.Registry, len(names))
		runs := make([]sim.CampaignRun, len(names))
		for i, name := range names {
			runs[i] = sim.CampaignRun{Name: name, Setup: setup(name, &systems[i], &managers[i], &registries[i])}
		}
		results, err := sim.RunCampaign(context.Background(), 0, runs)
		if err != nil {
			log.Fatal(err)
		}
		for i, name := range names {
			dump(name, systems[i], registries[i])
			report(results[i], managers[i])
		}
		return
	}
	report(run(*policy))
}

// fleetIgnores are the flags the federated -fleet campaign silently
// dropped before validation: it synthesizes its own per-site traces and
// drives the chaos site-loss harness, so the single-day plumbing does not
// apply. (-survival is implied per site, not optional.)
var fleetIgnores = []string{
	"kill-at", "torn-kill", "state-dir", "compare", "faults", "survival",
	"genset", "telemetry-addr", "dump-frames", "dump-log", "dump-telemetry",
	"dump-trace", "trace", "policy", "weather", "workload", "peak", "energy",
}

// stormIgnores are the flags the single-site -storm-days campaign ignores.
// Unlike the fleet path it does honor -survival and -genset (the ladder
// and backup generator are the campaign's subject).
var stormIgnores = []string{
	"kill-at", "torn-kill", "state-dir", "compare", "faults",
	"telemetry-addr", "dump-frames", "dump-log", "dump-telemetry",
	"dump-trace", "trace", "policy", "weather", "workload", "peak", "energy",
}

// fleetRequires are the flags that only mean something under -fleet.
var fleetRequires = []string{"storm-site", "migrate", "fleet-log"}

// validateFlags rejects flag combinations the selected run shape would
// silently ignore. set holds the names of explicitly provided flags, with
// "fleet" and "storm-days" removed when explicitly zero.
func validateFlags(set map[string]bool) error {
	if set["fleet"] {
		for _, bad := range fleetIgnores {
			if set[bad] {
				return fmt.Errorf("-fleet runs the federated site-loss campaign, which ignores -%s; drop -%s or run without -fleet", bad, bad)
			}
		}
		return nil
	}
	for _, f := range fleetRequires {
		if set[f] {
			return fmt.Errorf("-%s only applies to a federated run; add -fleet N (N >= 2) or drop -%s", f, f)
		}
	}
	if set["storm-days"] {
		for _, bad := range stormIgnores {
			if set[bad] {
				return fmt.Errorf("-storm-days runs the chaos storm campaign, which ignores -%s; drop -%s or run a single day without -storm-days", bad, bad)
			}
		}
	}
	return nil
}

// mgrConfig builds the insure control-plane config, arming the
// survivability ladder when asked.
func mgrConfig(survival bool) core.Config {
	cfg := core.DefaultConfig()
	if survival {
		cfg.Survival = core.DefaultSurvivalConfig()
	}
	return cfg
}

// parseKills parses the -kill-at list into sorted sim times.
func parseKills(spec string) ([]time.Duration, error) {
	if spec == "" {
		return nil, nil
	}
	var out []time.Duration
	for _, part := range strings.Split(spec, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-kill-at %q: %w", part, err)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// serveLive serves reg's /metrics and /healthz on addr while a day runs.
// Scrapes then read the plant from another goroutine, so mu, which the day
// ticks under, becomes reg's collect lock.
func serveLive(reg *telemetry.Registry, addr string, mu *sync.Mutex) (*telemetry.Server, error) {
	reg.SetCollectLock(mu)
	return telemetry.Listen(addr, reg.Mux())
}

// runDay is sys.Run(mgr) with every tick under mu.
func runDay(sys *sim.System, mgr sim.Manager, mu *sync.Mutex) sim.Result {
	start, end := sys.Span()
	for tod := start; tod < end; tod += sys.Config().Step {
		mu.Lock()
		sys.Tick(tod, mgr)
		mu.Unlock()
	}
	return sys.Finish(mgr)
}

// runJournaled runs the day with the crash-safe control plane: every
// control pass commits to the state journal in dir, and at each kill point
// the controller is hard-stopped and rebuilt purely from disk — the plant
// keeps its physical state, recovery reconciles the restored relay intent
// against it, and the run continues. Every tick and restart holds mu. It
// returns the result and the final (possibly recovered) manager so the
// report can read its fault events.
func runJournaled(sys *sim.System, mgr *core.Manager, kills []time.Duration, dir string, torn bool, mu *sync.Mutex) (sim.Result, sim.Manager) {
	store, err := journal.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	jm := core.NewJournaled(mgr, store)
	var tear int64
	if torn {
		tear = 40
	}
	start, end := sys.Span()
	step := sys.Config().Step
	next := 0
	for tod := start; tod < end; tod += step {
		mu.Lock()
		if next < len(kills) && tod >= kills[next] {
			// Hard stop: only the journal survives the controller. Restart
			// rebuilds it under the config it ran with, so a survival-armed
			// plant keeps its emergency posture.
			fixed, err := jm.Restart(sys, tod, tear)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("controller killed at %v: recovered from journal (recovery #%d), %d relay pairs reconciled\n",
				kills[next], jm.Recoveries(), fixed)
			next++
		}
		sys.Tick(tod, jm)
		mu.Unlock()
	}
	res := sys.Finish(jm)
	if err := jm.Err(); err != nil {
		log.Printf("warning: journal commit error during run: %v", err)
	}
	if err := jm.Store().Close(); err != nil {
		log.Printf("warning: journal close: %v", err)
	}
	if jm.Recoveries() > 0 {
		fmt.Printf("recoveries %d, reconciliations %d\n", jm.Recoveries(), jm.Reconciliations())
	}
	return res, jm
}

func writeFrames(path string, sys *sim.System) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"seconds", "solar_w", "load_w", "stored_wh", "running_vms"}
	for i := 0; i < sys.Bank.Size(); i++ {
		header = append(header,
			fmt.Sprintf("v%d", i), fmt.Sprintf("soc%d", i), fmt.Sprintf("mode%d", i))
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, fr := range sys.Recorder().Frames() {
		row := []string{
			strconv.FormatInt(int64(fr.At/time.Second), 10),
			fmt.Sprintf("%.1f", float64(fr.Solar)),
			fmt.Sprintf("%.1f", float64(fr.Load)),
			fmt.Sprintf("%.1f", float64(fr.StoredWh)),
			strconv.Itoa(fr.RunningVM),
		}
		for i := range fr.Volts {
			row = append(row,
				fmt.Sprintf("%.3f", float64(fr.Volts[i])),
				fmt.Sprintf("%.3f", fr.SoCs[i]),
				fr.Modes[i].String())
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
