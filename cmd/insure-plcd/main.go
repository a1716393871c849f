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
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"insure/internal/battery"
	"insure/internal/faults"
	"insure/internal/journal"
	"insure/internal/modbus"
	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/sensor"
	"insure/internal/telemetry"
	"insure/internal/units"
)

// panel is the assembled plant plus its observability plane. It is built by
// newPanel and advanced by tick; main only adds the Modbus listener, the
// fault injector, and the real-time loop, so tests can drive the identical
// wiring at simulated speed.
type panel struct {
	n             int
	solarW, loadW units.Watt
	bank          *battery.Bank
	fabric        *relay.Fabric
	probes        []*sensor.BatteryProbe
	controller    *plc.PLC
	reg           *telemetry.Registry
	socGauges     []*telemetry.Gauge
	tputGauges    []*telemetry.Gauge
	relayCycles   *telemetry.Gauge
	failedRelays  *telemetry.Gauge

	// The PLC scan's process images, moved under one register lock each.
	scanInputs []uint16 // 2n unit voltage/current codes
	scanSystem []uint16 // solar and load power codes
	scanCoils  []bool   // 2n charge/discharge relay coils
}

// newPanel wires the plant and registers its telemetry. The plant loop
// publishes into the registry with atomic stores, so the HTTP goroutines
// never race with the physics.
func newPanel(n int, soc, solarW, loadW float64) (*panel, error) {
	if n > plc.MaxUnits {
		return nil, fmt.Errorf("-units %d exceeds the PLC register map's %d", n, plc.MaxUnits)
	}
	bank, err := battery.NewBank(battery.DefaultParams(), n, soc)
	if err != nil {
		return nil, err
	}
	p := &panel{
		n:      n,
		solarW: units.Watt(solarW),
		loadW:  units.Watt(loadW),
		bank:   bank,
		fabric: relay.NewFabric(n),
		probes: make([]*sensor.BatteryProbe, n),

		scanInputs: make([]uint16, 2*n),
		scanSystem: make([]uint16, 2),
		scanCoils:  make([]bool, 2*n),
	}
	for i := range p.probes {
		p.probes[i] = sensor.NewBatteryProbe(i)
	}

	p.controller = plc.New(n)
	p.controller.Sample = func(r *plc.RegisterFile) {
		for i, u := range p.bank.Units() {
			pr := p.probes[i]
			pr.Sample(u.TerminalVoltage(), u.LastCurrent())
			p.scanInputs[plc.InputVolt(i)] = pr.Volt.Raw()
			p.scanInputs[plc.InputCurrent(i)] = pr.Current.Raw()
		}
		_ = r.SetInputs(plc.InputVoltBase, p.scanInputs)
		p.scanSystem[0] = plc.PowerCode(p.solarW)
		p.scanSystem[1] = plc.PowerCode(p.loadW)
		_ = r.SetInputs(plc.InputSolarPower, p.scanSystem)
	}
	p.controller.Actuate = func(r *plc.RegisterFile) {
		if r.CoilsInto(p.scanCoils, plc.CoilChargeBase) != nil {
			return
		}
		for i := 0; i < n; i++ {
			cr, dr := p.scanCoils[plc.CoilCharge(i)], p.scanCoils[plc.CoilDischarge(i)]
			pair := p.fabric.Pair(i)
			switch {
			case cr && dr:
				pair.SetMode(relay.Open) // interlock
			case cr:
				pair.SetMode(relay.Charging)
			case dr:
				pair.SetMode(relay.Discharging)
			default:
				pair.SetMode(relay.Open)
			}
		}
	}

	reg := telemetry.NewRegistry()
	p.reg = reg
	p.socGauges = make([]*telemetry.Gauge, n)
	p.tputGauges = make([]*telemetry.Gauge, n)
	for i := range p.socGauges {
		lbl := telemetry.Label{Key: "unit", Value: strconv.Itoa(i)}
		p.socGauges[i] = reg.Gauge("insure_battery_soc",
			"State of charge of one battery unit (0-1).", lbl)
		p.tputGauges[i] = reg.Gauge("insure_battery_throughput_ah",
			"Cumulative wear-weighted discharge throughput of one battery unit, amp-hours.", lbl)
	}
	p.relayCycles = reg.Gauge("insure_relay_cycles",
		"Total mechanical switching cycles consumed across the relay fabric.")
	p.failedRelays = reg.Gauge("insure_relay_failed",
		"Relay pairs with an injected or detected hardware fault.")
	scanHist := reg.Histogram("insure_plc_scan_duration_seconds",
		"Wall-clock duration of one PLC scan cycle.", telemetry.DefTimeBuckets)
	settleHist := reg.Histogram("insure_relay_settle_seconds",
		"Time between a relay coil command and the contact settling.", telemetry.DefTimeBuckets)
	p.controller.OnScan = func(d time.Duration) { scanHist.Observe(d.Seconds()) }
	onSettle := func(w time.Duration) { settleHist.Observe(w.Seconds()) }
	for i := 0; i < n; i++ {
		p.fabric.Pair(i).Charge.OnSettle = onSettle
		p.fabric.Pair(i).Discharge.OnSettle = onSettle
	}
	p.fabric.P1.OnSettle = onSettle
	p.fabric.P2.OnSettle = onSettle
	p.fabric.P3.OnSettle = onSettle
	reg.AddHealthCheck("relay-fabric", func() error {
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
	charging := p.fabric.UnitsIn(relay.Charging)
	discharging := p.fabric.UnitsIn(relay.Discharging)
	p.bank.ChargeSet(charging, p.solarW, dt)
	p.bank.DischargeSet(discharging, p.loadW, dt)
	for _, i := range p.fabric.UnitsIn(relay.Open) {
		p.bank.Unit(i).Rest(dt)
	}
	p.fabric.Tick(dt)
	p.controller.Tick(dt)

	p.reg.SetClock(elapsed)
	p.relayCycles.Set(float64(p.fabric.TotalCycles()))
	failed := 0
	for i := 0; i < p.n; i++ {
		if p.fabric.Pair(i).Failed() {
			failed++
		}
	}
	p.failedRelays.Set(float64(failed))
	for i, u := range p.bank.Units() {
		p.socGauges[i].Set(u.SoC())
		p.tputGauges[i].Set(float64(u.Throughput()))
	}
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
		defer ps.Close()
		elapsed, restored, err := ps.restoreInto(p)
		if err != nil {
			log.Fatal(err)
		}
		if restored {
			resumeAt = elapsed
			p.controller.ScanNow() // re-drive the fabric from restored coils
			fmt.Printf("resumed panel state from %s (elapsed %v)\n", *stateDir, elapsed)
		}
	}

	srv := modbus.NewServer(p.controller.Regs)
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
		maddr, stopMetrics, err := p.reg.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stopMetrics()
		fmt.Printf("telemetry on http://%s/metrics and /healthz\n", maddr)
	}
	if *debugAddr != "" {
		daddr, stopDebug, err := telemetry.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stopDebug()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", daddr)
	}

	injector := faults.NewInjector(faultPlan, faults.Target{
		Bank:   p.bank,
		Fabric: p.fabric,
		Probes: p.probes,
		Panel:  srv,
	})
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

	// Real-time plant loop: 1 s physics ticks under the watchdog. A
	// panicked or wedged loop is replaced in-process, re-synced from the
	// journal, and its relay intent re-driven; a killed process resumes
	// from the same journal at next boot.
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
	}
}
