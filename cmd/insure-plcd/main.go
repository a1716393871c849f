// Command insure-plcd runs the battery-array control panel as a standalone
// Modbus TCP server — the same control plane the prototype exposes between
// its PLC and the coordination node (§4).
//
// The daemon simulates the battery array, relay fabric, and transducers in
// real time. Any Modbus TCP client can read per-unit voltage/current input
// registers and drive the charge/discharge coils; the register map is
// documented in insure/internal/plc. SIGINT/SIGTERM shut the panel down
// cleanly, draining live Modbus sessions.
//
// The daemon also serves an observability plane on -metrics-addr:
// GET /metrics is Prometheus text exposition (per-unit SoC and throughput,
// relay cycles and settle latency, PLC scan duration), GET /healthz reports
// ok/degraded from the relay-fabric fault check. -debug-addr optionally
// exposes net/http/pprof on a second listener.
//
// Usage:
//
//	insure-plcd -listen 127.0.0.1:1502 -units 6
//	insure-plcd -faults 'bat:2@2m:0.6,drop@5m'
//	curl http://127.0.0.1:9620/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"insure/internal/battery"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/modbus"
	"insure/internal/plc"
	"insure/internal/telemetry"
	"insure/internal/units"
)

// panel is the control panel (plc.Panel) plus the daemon's observability
// plane. It is built by newPanel and advanced by tick; main only adds the
// Modbus listener, the fault injector, and the real-time loop, so tests can
// drive the identical wiring at simulated speed.
type panel struct {
	*plc.Panel
	reg          *telemetry.Registry
	failedRelays *telemetry.Gauge

	// The units by relay mode, refilled by every tick's one fabric pass.
	open, charging, discharging []int
}

// newPanel wires the plant and registers its telemetry. The plant loop
// publishes into the registry with atomic stores, so the HTTP goroutines
// never race with the physics. Each bus power must be finite and
// non-negative: a NaN would reach the batteries' state of charge within a
// tick and be journaled from there.
func newPanel(n int, soc, solarW, loadW float64) (*panel, error) {
	if !(solarW >= 0 && solarW <= math.MaxFloat64) {
		return nil, fmt.Errorf("-solar %v: need a finite power of at least 0 W", solarW)
	}
	if !(loadW >= 0 && loadW <= math.MaxFloat64) {
		return nil, fmt.Errorf("-load %v: need a finite power of at least 0 W", loadW)
	}
	bank, err := battery.NewBank(battery.DefaultParams(), n, soc)
	if err != nil {
		return nil, err
	}
	pp, err := plc.NewPanel(bank)
	if err != nil {
		return nil, err
	}
	p := &panel{
		Panel:       pp,
		reg:         telemetry.NewRegistry(),
		open:        make([]int, 0, n),
		charging:    make([]int, 0, n),
		discharging: make([]int, 0, n),
	}
	p.SolarPower, p.LoadPower = units.Watt(solarW), units.Watt(loadW)
	p.AttachTelemetry(p.reg)
	p.failedRelays = p.reg.Gauge("insure_relay_failed",
		"Relay pairs with an injected or detected hardware fault.")
	p.reg.AddHealthCheck("relay-fabric", func() error {
		if f := p.failedRelays.Value(); f > 0 {
			return fmt.Errorf("%.0f relay pairs faulted", f)
		}
		return nil
	})
	return p, nil
}

// tick advances the plant by dt at time-since-start elapsed and publishes
// the cycle's telemetry.
func (p *panel) tick(dt, elapsed time.Duration) {
	p.open, p.charging, p.discharging = p.Fabric.AppendByMode(p.open[:0], p.charging[:0], p.discharging[:0])
	p.Bank.ChargeSet(p.charging, p.SolarPower, dt)
	p.Bank.DischargeSet(p.discharging, p.LoadPower, dt)
	for _, i := range p.open {
		p.Bank.Unit(i).Rest(dt)
	}
	p.Fabric.Tick(dt)
	p.PLC.Tick(dt)

	p.reg.SetClock(elapsed)
	p.Publish()
	failed := 0
	for i := 0; i < p.Fabric.Size(); i++ {
		if p.Fabric.Pair(i).Failed() {
			failed++
		}
	}
	p.failedRelays.Set(float64(failed))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-plcd: ")
	listen := flag.String("listen", "127.0.0.1:1502", "Modbus TCP listen address")
	n := flag.Int("units", 6, fmt.Sprintf("battery units (at most %d)", plc.MaxUnits))
	soc := flag.Float64("soc", 0.5, "initial state of charge")
	solarW := flag.Float64("solar", 400, "charge-bus power budget (W)")
	loadW := flag.Float64("load", 300, "discharge-bus load (W)")
	faultSpec := flag.String("faults", "", "inject faults at time-since-start: comma-separated kind[:unit]@time[:magnitude] events, e.g. bat:2@2m:0.6,drop@5m (kinds: stick, drift, relay-open, relay-weld, bat, drop)")
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:9620", "HTTP listen address for /metrics and /healthz (empty disables)")
	debugAddr := flag.String("debug-addr", "", "HTTP listen address for net/http/pprof (empty disables)")
	stateDir := flag.String("state-dir", "", "journal panel state to this directory; a restarted daemon resumes SoC, wear, relay and register state")
	scrubEvery := flag.Duration("scrub-interval", time.Minute, "background CRC scrub cadence for the state directory (0 disables)")
	sessionTimeout := flag.Duration("session-timeout", 30*time.Second, "idle limit before a silent Modbus session is reaped (0 disables)")
	flag.Parse()

	faultPlan, err := faults.Parse(*faultSpec)
	if err == nil {
		err = faultPlan.CheckUnits(*n)
	}
	if err != nil {
		log.Fatal(err)
	}

	p, err := newPanel(*n, *soc, *solarW, *loadW)
	if err != nil {
		log.Fatal(err)
	}

	// Durable state: open the journal and, if a previous incarnation left
	// state behind, resume from it — the batteries do not forget their
	// charge because the daemon restarted.
	var ps *panelStore
	var resumeAt time.Duration
	if *stateDir != "" {
		ps, err = openPanelStore(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
		elapsed, restored, err := ps.restoreInto(p)
		if err != nil {
			log.Fatal(err)
		}
		if restored {
			resumeAt = elapsed
			p.PLC.ScanNow() // re-drive the fabric from restored coils
			fmt.Printf("resumed panel state from %s (elapsed %v)\n", *stateDir, elapsed)
		}
	}

	srv := modbus.NewServer(p.PLC.Regs)
	srv.Logf = log.Printf
	srv.SessionTimeout = *sessionTimeout
	srv.RegisterTelemetry(p.reg)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("battery control panel on modbus-tcp://%s (%d units)\n", addr, *n)
	fmt.Println("coils: 2i=charge relay, 2i+1=discharge relay; inputs: 2i=voltage code, 2i+1=current code")

	if *metricsAddr != "" {
		ms, err := telemetry.Listen(*metricsAddr, p.reg.Mux())
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown("telemetry", ms)
		fmt.Printf("telemetry on http://%s/metrics and /healthz\n", ms.Addr())
	}
	if *debugAddr != "" {
		ds, err := telemetry.Listen(*debugAddr, telemetry.DebugMux())
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown("pprof", ds)
		fmt.Printf("pprof on http://%s/debug/pprof/\n", ds.Addr())
	}

	injector := faults.NewInjector(faultPlan, faults.Target{Panel: p.Panel, Server: srv})
	injector.Logf = log.Printf

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Storage integrity plane: a background scrubber CRC-walks the state
	// directory, repairs damaged mirror copies, and backs the "storage"
	// health check (dir writable, mirrors in sync, last sweep fresh). A
	// poisoned journal (failed fsync) degrades /healthz through the
	// state-journal check.
	if ps != nil {
		p.reg.AddHealthCheck("state-journal", ps.Err)
		if *scrubEvery > 0 {
			scrub := journal.NewScrubber(ps.scrubTarget())
			scrub.Interval = *scrubEvery
			scrub.AttachTelemetry(p.reg)
			go scrub.Run(ctx)
		}
	}

	// Real-time plant loop: 1 s physics ticks. A panicked loop restarts
	// in-process, re-synced from the journal, and its relay intent
	// re-driven. A hung process must be restarted; like a killed one, it
	// resumes from the same journal at next boot. The store closes once the
	// loop is done with it, then the listeners and Modbus sessions drain.
	sup := newSupervisor(p, ps)
	sup.setElapsed(resumeAt)
	sup.onTick = func(elapsed time.Duration) { injector.Tick(elapsed) }
	sup.registerTelemetry(p.reg)
	sup.Run(ctx)
	log.Print("signal received, draining connections")
	if ps != nil {
		if err := ps.Err(); err != nil {
			log.Printf("warning: state journal degraded during run: %v", err)
		}
		if err := ps.Close(); err != nil {
			log.Printf("warning: closing state journal: %v", err)
		}
	}
}

// shutdown stops a listener, logging any request it had to cut off.
func shutdown(name string, s *telemetry.Server) {
	if err := s.Shutdown(); err != nil {
		log.Printf("%s listener: %v", name, err)
	}
}
