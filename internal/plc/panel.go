package plc

import (
	"fmt"
	"strconv"
	"time"

	"insure/internal/battery"
	"insure/internal/relay"
	"insure/internal/sensor"
	"insure/internal/telemetry"
	"insure/internal/units"
)

// Panel is the battery control panel of §4: the bank, its relay fabric and
// unit transducers, and the PLC whose analog modules sample the transducers
// into the input registers and whose coils drive the relays. The simulated
// plant (sim.System) and the panel daemon (insure-plcd) run this one wiring.
type Panel struct {
	Bank   *battery.Bank
	Fabric *relay.Fabric
	Probes []*sensor.BatteryProbe
	PLC    *PLC

	// SolarPower and LoadPower are the bus powers the scan publishes in the
	// InputSolarPower and InputLoadPower registers.
	SolarPower, LoadPower units.Watt

	// The scan's process images, each moved under one register lock, so a
	// scan takes the lock twice however many units the bank has: input
	// registers 0..InputLoadPower (the 2n unit codes, the registers no
	// unit uses, which stay 0, then the solar and load codes) and the 2n
	// relay coils.
	inputs []uint16
	coils  []bool

	// The gauges Publish sets, registered by AttachTelemetry.
	soc, tput   []*telemetry.Gauge
	relayCycles *telemetry.Gauge
}

// NewPanel wires a panel around bank: a fresh all-open relay fabric, one
// probe per unit, and a PLC whose scan samples the probes and drives the
// fabric. A bank larger than MaxUnits is refused.
func NewPanel(bank *battery.Bank) (*Panel, error) {
	n := bank.Size()
	if n > MaxUnits {
		return nil, fmt.Errorf("plc: %d battery units exceed the register map's %d", n, MaxUnits)
	}
	p := &Panel{
		Bank:   bank,
		Fabric: relay.NewFabric(n),
		Probes: make([]*sensor.BatteryProbe, n),
		PLC:    New(n),
		inputs: make([]uint16, InputLoadPower+1),
		coils:  make([]bool, 2*n),
	}
	for i := range p.Probes {
		p.Probes[i] = sensor.NewBatteryProbe(i)
	}
	p.PLC.Sample = p.sample
	p.PLC.Actuate = p.actuate
	return p, nil
}

// sample is the analog modules' pass: every probe samples its unit, and the
// unit codes and the bus power codes land in the input registers as one
// block, so a fieldbus block read sees both from the same scan. NewPanel's
// MaxUnits check keeps the unit codes below the power codes.
func (p *Panel) sample(r *RegisterFile) {
	for i, u := range p.Bank.Units() {
		pr := p.Probes[i]
		pr.Sample(u.TerminalVoltage(), u.LastCurrent())
		p.inputs[InputVolt(i)] = pr.Volt.Raw()
		p.inputs[InputCurrent(i)] = pr.Current.Raw()
	}
	p.inputs[InputSolarPower] = PowerCode(p.SolarPower)
	p.inputs[InputLoadPower] = PowerCode(p.LoadPower)
	_ = r.SetInputs(InputVoltBase, p.inputs)
}

// actuate drives every unit's relay pair from its coil pair.
func (p *Panel) actuate(r *RegisterFile) {
	if r.CoilsInto(p.coils, CoilChargeBase) != nil {
		return
	}
	for i := 0; i < p.Fabric.Size(); i++ {
		cr, dr := p.coils[CoilCharge(i)], p.coils[CoilDischarge(i)]
		pair := p.Fabric.Pair(i)
		switch {
		case cr && dr:
			// Interlock: refuse the double-closed command.
			pair.SetMode(relay.Open)
		case cr:
			pair.SetMode(relay.Charging)
		case dr:
			pair.SetMode(relay.Discharging)
		default:
			pair.SetMode(relay.Open)
		}
	}
}

// AttachTelemetry registers the panel's instruments on reg: per-unit SoC
// and throughput, relay cycles, and the scan-duration and relay-settle
// histograms, which it hooks to the PLC's OnScan and every relay's
// OnSettle, so each scan and settle still observes as it happens. Publish
// sets the gauges. Call it once.
func (p *Panel) AttachTelemetry(reg *telemetry.Registry) {
	for i := range p.Probes {
		lbl := telemetry.Label{Key: "unit", Value: strconv.Itoa(i)}
		p.soc = append(p.soc, reg.Gauge("insure_battery_soc",
			"State of charge of one battery unit (0-1).", lbl))
		p.tput = append(p.tput, reg.Gauge("insure_battery_throughput_ah",
			"Cumulative wear-weighted discharge throughput of one battery unit, amp-hours.", lbl))
	}
	p.relayCycles = reg.Gauge("insure_relay_cycles",
		"Total mechanical switching cycles consumed across the relay fabric.")
	scan := reg.Histogram("insure_plc_scan_duration_seconds",
		"Wall-clock duration of one PLC scan cycle.", telemetry.DefTimeBuckets)
	settle := reg.Histogram("insure_relay_settle_seconds",
		"Sim-time between a relay coil command and the contact settling, as the control plane observes it.",
		telemetry.DefTimeBuckets)

	p.PLC.OnScan = func(d time.Duration) { scan.Observe(d.Seconds()) }
	onSettle := func(w time.Duration) { settle.Observe(w.Seconds()) }
	for i := 0; i < p.Fabric.Size(); i++ {
		pair := p.Fabric.Pair(i)
		pair.Charge.OnSettle = onSettle
		pair.Discharge.OnSettle = onSettle
	}
}

// Publish mirrors the bank and fabric into the gauges AttachTelemetry
// registered. It reads the bank and fabric, so it runs where nothing moves
// them. The simulated plant calls it from its collect hook, when the
// registry is scraped, under the lock the plant ticks under. insure-plcd
// calls it at the end of every tick instead: its loop runs at 1 Hz of
// wall time and a tick can stall on a journal fsync, so a scrape there
// must never wait on the loop's lock; it reads the gauges as the last tick
// left them.
func (p *Panel) Publish() {
	p.relayCycles.Set(float64(p.Fabric.TotalCycles()))
	for i, g := range p.soc {
		u := p.Bank.Unit(i)
		g.Set(u.SoC())
		p.tput[i].Set(float64(u.Throughput()))
	}
}
