// Package sim is the discrete-time engine that couples the InSURE plant
// models — solar supply, battery bank, relay fabric, PLC, sensors, server
// cluster, and workload — and advances them under the control of a power
// manager.
//
// The engine reproduces the prototype's physical topology (Fig 6): solar
// power feeds the load directly; surplus flows through the charge bus into
// whichever battery units have their charging relays closed; deficits are
// drawn from units on the discharge bus. The PLC samples the per-unit
// transducers into its register file each scan and drives the relays from
// its coils, so managers act on transduced readings, exactly like the
// prototype's coordination node.
package sim

import (
	"fmt"
	"time"

	"insure/internal/battery"
	"insure/internal/genset"
	"insure/internal/logbook"
	"insure/internal/metrics"
	"insure/internal/plc"
	"insure/internal/relay"
	"insure/internal/server"
	"insure/internal/trace"
	"insure/internal/units"
	"insure/internal/workload"
)

// Manager is a supply/load power-management policy. Control runs once per
// control period with full access to the plant.
type Manager interface {
	Name() string
	// Period is the manager's control interval.
	Period() time.Duration
	// Control observes the plant (through PLC registers) and actuates
	// relays (through PLC coils) and the server cluster.
	Control(sys *System, now time.Duration)
}

// Sink consumes cluster work on behalf of a workload.
type Sink interface {
	Spec() workload.Spec
	// Tick feeds workVMh full-speed VM-hours done at nVMs into the
	// workload and returns GB processed.
	Tick(now, dt time.Duration, workVMh float64, nVMs int) float64
	// HasWork reports whether the workload wants service now.
	HasWork(now time.Duration) bool
	// ProcessedGB is cumulative output.
	ProcessedGB() float64
	// DelayMinutes is the workload's current service-delay estimate.
	DelayMinutes() float64
}

// Config assembles a System.
type Config struct {
	// Trace is the solar budget for the day.
	Trace *trace.Trace
	// BatteryParams and BatteryCount shape the energy buffer (6 units on
	// the prototype).
	BatteryParams battery.Params
	BatteryCount  int
	// InitialSoC is each unit's starting state of charge.
	InitialSoC float64
	// ServerProfile and ServerCount shape the cluster (4 Xeons).
	ServerProfile server.Profile
	ServerCount   int
	// Step is the simulation tick (default 1 s).
	Step time.Duration
	// WindowStart/WindowEnd bound the operating day (Table 6: ~11 h).
	WindowStart time.Duration
	WindowEnd   time.Duration
	// RecordEvery controls recorder down-sampling (default 30 s).
	RecordEvery time.Duration
	// HoldUp is how long the plant rides through a supply shortfall before
	// the inverter trips. The prototype's PLC reacts at scan speed
	// (10 ms) and its relays switch in 25 ms, so any coordinator decision
	// within one control period arrives in time; the default (35 s) gives
	// a 30 s-period manager exactly one chance to react, after which the
	// bus collapses (§2.3's service disruption).
	HoldUp time.Duration
	// Secondary, when non-nil, is the optional backup generator of Fig 6.
	// It feeds the load bus after the battery, under manager control.
	Secondary *genset.Generator
	// Aux, when non-nil, is an additional renewable source feeding the
	// same bus as the solar array (§2.2 motivates wind/solar systems; see
	// insure/internal/wind).
	Aux AuxSupply
	// Bank, when non-nil, is an existing battery bank to operate instead
	// of creating a fresh one — multi-day campaigns carry charge state and
	// wear across days this way.
	Bank *battery.Bank
	// Arena, when non-nil, supplies worker-local scratch memory (solar LUT
	// cache, recycled recorders) for campaign construction. Purely a memory
	// optimisation: results are bit-identical with or without it.
	Arena *Arena
}

// AuxSupply is an additional renewable generator with the solar supply's
// Step contract.
type AuxSupply interface {
	Step(tod, dt time.Duration) units.Watt
}

// DefaultConfig mirrors the paper's prototype.
func DefaultConfig(tr *trace.Trace) Config {
	return Config{
		Trace:         tr,
		BatteryParams: battery.DefaultParams(),
		BatteryCount:  6,
		InitialSoC:    0.5,
		ServerProfile: server.Xeon(),
		ServerCount:   4,
		Step:          time.Second,
		WindowStart:   8 * time.Hour,
		WindowEnd:     19*time.Hour + 30*time.Minute,
		RecordEvery:   30 * time.Second,
		HoldUp:        35 * time.Second,
	}
}

// System is the assembled plant.
type System struct {
	cfg Config

	// Panel is the battery control panel: the bank, relay fabric, probes
	// and PLC (sys.Bank, sys.Fabric, sys.Probes, sys.PLC), and the scan
	// program between them. Its SolarPower and LoadPower are this tick's
	// solar supply and cluster draw.
	*plc.Panel
	Cluster *server.Cluster
	Sink    Sink

	auxNow units.Watt

	// Secondary is the optional backup generator (nil when absent).
	Secondary *genset.Generator

	// Log is the deployment's operational event log (§5's automatically
	// collected log data). Managers and the plant both write to it.
	Log *logbook.Book

	// remote, when set, routes control-plane traffic over Modbus TCP.
	remote       remoteClient
	remoteServer remoteCloser
	// The fieldbus process image (remote.go): imageFresh reports that the
	// probes hold the panel's unit codes as of PLC scan imageScan, fetched
	// (or found unreachable) within the current control pass. installs
	// counts the images installed in the probes, for ReadingsGen.
	imageFresh bool
	imageScan  int64
	installs   uint64
	// modeCoils is SetUnitModes' relay command image: 2n coils.
	modeCoils []bool

	// onTick, when set, runs at the top of every Tick with the plant clock —
	// the fault-injection layer's entry point (internal/faults). It must not
	// allocate in the steady state: the zero-alloc tick invariant covers it.
	onTick func(tod time.Duration)

	// tel, when set by AttachTelemetry, holds the live telemetry registry:
	// the tick advances its clock, and its collect hook reads the plant
	// when it is scraped (telemetry.go).
	tel *telemetryHooks

	auxEnergy units.WattHour

	// solarLUT is the trace resampled onto the simulation step, built once
	// in New: solarLUT[i] is the supply at time-of-day i·Step. Tick reads it
	// with one index instead of walking the trace, falling back to Trace.At
	// for off-step queries so results stay bit-identical.
	solarLUT []units.Watt

	// Scratch buffers reused every tick so the steady-state hot path stays
	// allocation-free (the zero-alloc tick invariant, see DESIGN.md).
	scratchCharging    []int
	scratchDischarging []int
	scratchOpen        []int

	// Accounting.
	harvested     units.WattHour // solar energy actually used (load+charge)
	curtailed     units.WattHour // solar energy with nowhere to go
	loadEnergy    units.WattHour
	effEnergy     units.WattHour // load energy spent while progressing
	brownouts     int
	shortfallFor  time.Duration
	upTicks       int
	windowTicks   int
	storedSeries  *metrics.Series
	voltSeries    *metrics.Series
	minVolt       units.Volt
	endVolt       units.Volt
	recorder      *Recorder
	recordCounter time.Duration
}

// New assembles a System; the sink supplies the workload.
func New(cfg Config, sink Sink) (*System, error) {
	if cfg.Step <= 0 {
		cfg.Step = time.Second
	}
	if cfg.RecordEvery <= 0 {
		cfg.RecordEvery = 30 * time.Second
	}
	if cfg.HoldUp <= 0 {
		cfg.HoldUp = 35 * time.Second
	}
	bank := cfg.Bank
	var err error
	if bank == nil {
		bank, err = battery.NewBank(cfg.BatteryParams, cfg.BatteryCount, cfg.InitialSoC)
		if err != nil {
			return nil, err
		}
	} else if bank.Size() != cfg.BatteryCount {
		return nil, fmt.Errorf("sim: supplied bank has %d units, config wants %d", bank.Size(), cfg.BatteryCount)
	}
	panel, err := plc.NewPanel(bank)
	if err != nil {
		return nil, err
	}
	start, end := runSpan(cfg)
	estFrames := int((end-start)/cfg.RecordEvery) + 4
	s := &System{
		cfg:                cfg,
		Panel:              panel,
		Cluster:            server.NewCluster(cfg.ServerProfile, cfg.ServerCount),
		Sink:               sink,
		storedSeries:       metrics.NewStreamingSeries(),
		voltSeries:         metrics.NewStreamingSeries(),
		minVolt:            99,
		recorder:           cfg.Arena.getRecorder(estFrames, cfg.BatteryCount),
		scratchCharging:    make([]int, 0, cfg.BatteryCount),
		scratchDischarging: make([]int, 0, cfg.BatteryCount),
		scratchOpen:        make([]int, 0, cfg.BatteryCount),
		modeCoils:          make([]bool, 2*cfg.BatteryCount),
	}
	s.buildSolarLUT(end)
	s.Secondary = cfg.Secondary
	s.Log = logbook.New(200_000)
	s.Cluster.SetUtil(sink.Spec().Util)
	// Prime the register file so the first control pass sees real sensor
	// samples rather than zeroed registers.
	s.PLC.ScanNow()
	return s, nil
}

// runSpan is the [start, end) window a full-day Run covers: from two hours
// before the operating window (or one hour before the trace starts,
// whichever is earlier) to one hour past the operating window.
func runSpan(cfg Config) (start, end time.Duration) {
	start = cfg.WindowStart - 2*time.Hour
	if cfg.Trace != nil {
		if t := cfg.Trace.Start - time.Hour; t < start {
			start = t
		}
	}
	return start, cfg.WindowEnd + time.Hour
}

// buildSolarLUT resamples the trace onto the simulation step once, covering
// time-of-day zero through end, so the per-tick supply query is one bounds
// check and one load. With an Arena configured the LUT comes from the
// worker's cache — same values, built at most once per (trace, step, span).
func (s *System) buildSolarLUT(end time.Duration) {
	s.solarLUT = s.cfg.Arena.solarLUT(s.cfg.Trace, s.cfg.Step, end)
}

// solarAt is the step-indexed supply lookup. Off-step or out-of-range
// queries fall back to the trace so the answer is always bit-identical to
// Trace.At.
func (s *System) solarAt(tod time.Duration) units.Watt {
	if tod >= 0 && tod%s.cfg.Step == 0 {
		if i := int(tod / s.cfg.Step); i < len(s.solarLUT) {
			return s.solarLUT[i]
		}
	}
	return s.cfg.Trace.At(tod)
}

// Config returns the system's configuration. It points at the system's
// own copy, so a read costs no copy of the whole struct; callers read
// fields through it and must not modify it.
func (s *System) Config() *Config { return &s.cfg }

// Recorder returns the time-series recorder.
func (s *System) Recorder() *Recorder { return s.recorder }

// SolarNow is the total harvested renewable power this tick (solar plus
// any auxiliary source on the same bus) — the green power budget managers
// plan against.
func (s *System) SolarNow() units.Watt { return s.SolarPower + s.auxNow }

// LoadNow is the cluster draw this tick.
func (s *System) LoadNow() units.Watt { return s.LoadPower }

// Brownouts counts forced shutdowns from supply collapse.
func (s *System) Brownouts() int { return s.brownouts }

// remoteClient is the Modbus surface the control plane needs.
type remoteClient interface {
	WriteCoils(addr uint16, vals []bool) error
	ReadInput(addr, count uint16) ([]uint16, error)
}

// remoteCloser tears down the served panel.
type remoteCloser interface{ Close() error }

// SetUnitModes writes the relay coils of units 0 … len(modes)-1 as one
// block — a single Modbus transaction on a remote control plane, a single
// register lock in-process — so the scan sees the whole command or none of
// it. This is the path a manager's control pass uses.
func (s *System) SetUnitModes(modes []relay.Mode) {
	if len(modes) == 0 {
		return
	}
	coils := s.modeCoils[:2*len(modes)]
	for i, m := range modes {
		coils[plc.CoilCharge(i)] = m == relay.Charging
		coils[plc.CoilDischarge(i)] = m == relay.Discharging
	}
	if s.remote != nil {
		if err := s.remote.WriteCoils(plc.CoilChargeBase, coils); err == nil {
			return
		}
		// Fieldbus failure: fall through to the local path so the plant
		// stays controllable, and leave a trace in the logbook.
		s.Log.Addf(0, logbook.Emergency, "fieldbus", "relay write for %d units failed; local fallback", len(modes))
	}
	// Cannot fail: plc.New sizes the coil bank for every unit.
	_ = s.PLC.Regs.SetCoils(plc.CoilChargeBase, coils)
}

// SetUnitMode writes the coil pair that realises relay mode m for unit i
// alone, for callers that re-drive a single pair.
func (s *System) SetUnitMode(i int, m relay.Mode) {
	if s.remote != nil {
		if err := s.remoteSetUnitMode(i, m); err == nil {
			return
		}
		s.Log.Addf(0, logbook.Emergency, "fieldbus", "write failed for unit %d; local fallback", i)
	}
	pair := [2]bool{m == relay.Charging, m == relay.Discharging}
	_ = s.PLC.Regs.SetCoils(plc.CoilCharge(i), pair[:])
}

// UnitReading returns unit i's transduced voltage and current as sampled by
// the PLC (what the prototype's coordinator actually sees). Over a remote
// control plane the codes come from the pass's fieldbus image.
func (s *System) UnitReading(i int) (units.Volt, units.Amp) {
	if s.remote != nil {
		s.pollImage()
	}
	return s.Probes[i].Readings()
}

// ReadingsGen is the readings generation: a counter that moves whenever
// UnitReading's answers can change, which is on every PLC scan (the probes
// sample) and every fieldbus image install (the probes take the panel's
// codes). Over a remote control plane it first refreshes a stale image
// exactly as the first UnitReading of a pass does, so a caller that keys a
// memo on it sees the codes UnitReading would, at the same Modbus cost.
func (s *System) ReadingsGen() uint64 {
	if s.remote != nil {
		s.pollImage()
	}
	return uint64(s.PLC.Scans()) + s.installs
}

// InWindow reports whether tod is inside the operating day.
func (s *System) InWindow(tod time.Duration) bool {
	return tod >= s.cfg.WindowStart && tod < s.cfg.WindowEnd
}

// SetTickHook installs fn to run at the top of every Tick, before manager
// control — so a fault landing on a control-period boundary is already in
// effect when the controller reads the plant. Pass nil to remove it.
func (s *System) SetTickHook(fn func(tod time.Duration)) { s.onTick = fn }

// Tick advances the plant one step at time-of-day tod.
func (s *System) Tick(tod time.Duration, mgr Manager) {
	dt := s.cfg.Step

	if s.onTick != nil {
		s.onTick(tod)
	}

	// 1. Renewable budget for this tick.
	s.SolarPower = s.solarAt(tod)
	if s.cfg.Aux != nil {
		s.auxNow = s.cfg.Aux.Step(tod, dt)
		s.auxEnergy += units.Energy(s.auxNow, dt)
	}

	// 2. Manager control at its period boundary. Each pass starts from a
	// fresh fieldbus image.
	if mgr != nil && int64(tod/dt)%int64(mgr.Period()/dt) == 0 {
		s.imageFresh = false
		mgr.Control(s, tod)
	}

	// 3. Resolve power flow.
	s.LoadPower = s.Cluster.Power()
	supply := s.SolarPower + s.auxNow
	solarToLoad := supply
	if solarToLoad > s.LoadPower {
		solarToLoad = s.LoadPower
	}
	surplus := supply - solarToLoad
	deficit := s.LoadPower - solarToLoad

	// One fabric pass splits the units by mode; nothing below moves a relay
	// before the rest loop reads the open list.
	s.scratchOpen, s.scratchCharging, s.scratchDischarging = s.Fabric.AppendByMode(
		s.scratchOpen[:0], s.scratchCharging[:0], s.scratchDischarging[:0])
	charging := s.scratchCharging
	discharging := s.scratchDischarging

	// Dispatch order for a deficit: the secondary feed (Fig 6/Fig 7 "S")
	// forms the backup bus and takes the base of the shortfall; the
	// battery trims whatever remains. Running the battery first would let
	// a generator-sized load plan crush the buffer at uncapped current.
	var deliveredWh units.WattHour
	remaining := deficit
	if s.Secondary != nil {
		got := s.Secondary.Step(remaining, dt)
		deliveredWh += units.Energy(got, dt)
		remaining -= got
		if remaining < 0 {
			remaining = 0
		}
	}
	if remaining > 0 && len(discharging) > 0 {
		deliveredWh += s.Bank.DischargeSet(discharging, remaining, dt)
	} else {
		// Connected but idle discharge units still diffuse/recover.
		for _, i := range discharging {
			s.Bank.Unit(i).Rest(dt)
		}
	}
	if deficit > 0 {
		needWh := units.Energy(deficit, dt)
		if deliveredWh < needWh*0.95 {
			// The power panel's hold-up capacitance rides through brief
			// shortfalls; a sustained one trips the inverter and the
			// cluster loses power mid-operation (§2.3's disruption).
			s.shortfallFor += dt
			if s.tel != nil {
				s.tel.deficitTicks.Inc()
			}
			if s.shortfallFor >= s.cfg.HoldUp {
				s.brownouts++
				if s.tel != nil {
					s.tel.brownouts.Inc()
				}
				// The inverter trips: this is a power cut, not a control
				// action. Nodes caught running or mid-checkpoint lose their
				// uncheckpointed VM state (§2.3's service disruption) — the
				// survivability layer exists to shed load and checkpoint
				// *before* this instant arrives.
				s.Cluster.Crash()
				s.shortfallFor = 0
				s.Log.Addf(tod, logbook.Emergency, "bus",
					"brownout: %.0f W deficit unserved, cluster crashed", float64(deficit))
			}
		} else {
			s.shortfallFor = 0
		}
	} else {
		s.shortfallFor = 0
	}
	var chargedW units.Watt
	if surplus > 0 && len(charging) > 0 {
		chargedW = s.Bank.ChargeSet(charging, surplus, dt)
	} else {
		for _, i := range charging {
			s.Bank.Unit(i).Rest(dt)
		}
	}
	s.curtailed += units.Energy(surplus-chargedW, dt)
	s.harvested += units.Energy(solarToLoad+chargedW, dt)

	// Units not on either bus rest and recover.
	for _, i := range s.scratchOpen {
		s.Bank.Unit(i).Rest(dt)
	}

	// 4. Control plane sampling/actuation.
	s.Fabric.Tick(dt)
	s.PLC.Tick(dt)

	// 5. Cluster progress into the workload.
	work := s.Cluster.Step(dt)
	gb := 0.0
	if s.Sink != nil {
		gb = s.Sink.Tick(tod, dt, work, s.Cluster.RunningVMs())
	}

	// 6. Accounting.
	loadE := units.Energy(s.LoadPower, dt)
	s.loadEnergy += loadE
	if work > 0 && gb >= 0 {
		s.effEnergy += loadE
	}
	if s.InWindow(tod) {
		s.windowTicks++
		if s.Cluster.AnyRunning() {
			s.upTicks++
		}
	}
	s.storedSeries.Add(float64(s.Bank.StoredEnergy()))
	for _, u := range s.Bank.Units() {
		v := u.TerminalVoltage()
		s.voltSeries.Add(float64(v))
		if v < s.minVolt {
			s.minVolt = v
		}
	}

	if s.tel != nil {
		// The registry clock follows sim time, so a scrape (or an
		// end-of-run snapshot) correlates with logbook timestamps.
		s.tel.reg.SetClock(tod)
	}

	// 7. Trace recording (down-sampled).
	s.recordCounter += dt
	if s.recordCounter >= s.cfg.RecordEvery {
		s.recordCounter = 0
		s.recorder.capture(tod, s)
	}
}

// Run simulates one full day (from one hour before the solar window to one
// hour past the operating window) under the manager.
func (s *System) Run(mgr Manager) Result {
	start, end := s.Span()
	for tod := start; tod < end; tod += s.cfg.Step {
		s.Tick(tod, mgr)
	}
	return s.Finish(mgr)
}

// Span returns the [start, end) time-of-day window a full-day Run covers.
// Harnesses that drive Tick themselves — the sim's kill/resume mode and
// the chaos campaigns — loop over this span and call Finish at the end.
func (s *System) Span() (start, end time.Duration) { return runSpan(s.cfg) }

// Finish seals a caller-driven tick loop and computes the day's Result,
// exactly as Run does after its own loop.
func (s *System) Finish(mgr Manager) Result {
	s.endVolt = s.Bank.Unit(0).TerminalVoltage()
	return s.result(mgr)
}

// Result summarises a run with the paper's measurement metrics.
type Result struct {
	Manager  string
	Workload string

	// Service-related metrics (Figs 20/21 left half).
	UptimeFrac  float64 // fraction of the operating window with servers up
	ProcessedGB float64
	Throughput  float64 // GB per operating-window hour
	DelayMin    float64 // mean service delay, minutes

	// System-related metrics (Figs 20/21 right half).
	EnergyAvail     units.WattHour // mean stored energy in the e-Buffer
	ServiceLifeYear float64        // projected e-Buffer service life
	PerfPerAh       float64        // GB processed per discharge Ah

	// Table 6 log statistics.
	LoadKWh      float64
	EffectiveKWh float64
	PowerOps     int
	OnOffCycles  int
	VMOps        int
	MinVolt      units.Volt
	EndVolt      units.Volt
	VoltStdDev   float64
	Brownouts    int

	// Survivability accounting: VM images whose checkpoint completed, and
	// VMs destroyed by power loss before their state was safe (the paper's
	// in-flight data loss a brownout causes).
	VMsSaved int
	VMsLost  int

	// Energy-flow accounting.
	HarvestedKWh float64
	CurtailedKWh float64
	WearSpreadAh units.AmpHour
	// WearAhPerUnit is the day's wear-weighted discharge throughput per
	// battery unit — the direct driver of buffer service life.
	WearAhPerUnit units.AmpHour

	// Secondary-power accounting (zero when no backup is fitted).
	GenStarts    int
	GenRunHours  float64
	GenKWh       float64
	GenFuelCost  float64
	GenWastedKWh float64 // energy dumped holding the min-load floor

	// AuxKWh is the auxiliary renewable (wind) generation over the run.
	AuxKWh float64
}

// calendarLifeYears caps the e-Buffer service-life projection: VRLA
// batteries age out chemically even when lightly cycled.
const calendarLifeYears = 6

func (s *System) result(mgr Manager) Result {
	window := s.cfg.WindowEnd - s.cfg.WindowStart
	r := Result{
		Workload:     s.Sink.Spec().Name,
		ProcessedGB:  s.Sink.ProcessedGB(),
		DelayMin:     s.Sink.DelayMinutes(),
		EnergyAvail:  units.WattHour(s.storedSeries.Mean()),
		LoadKWh:      s.loadEnergy.KWh(),
		EffectiveKWh: s.effEnergy.KWh(),
		PowerOps:     s.Cluster.PowerOps(),
		OnOffCycles:  s.Cluster.OnOffCycles(),
		VMOps:        s.Cluster.VMOps(),
		MinVolt:      s.minVolt,
		EndVolt:      s.endVolt,
		VoltStdDev:   s.voltSeries.StdDev(),
		Brownouts:    s.brownouts,
		VMsSaved:     s.Cluster.VMsSaved(),
		VMsLost:      s.Cluster.VMsLost(),
		HarvestedKWh: s.harvested.KWh(),
		CurtailedKWh: s.curtailed.KWh(),
		WearSpreadAh: s.Bank.ThroughputSpread(),
	}
	if mgr != nil {
		r.Manager = mgr.Name()
	}
	if s.windowTicks > 0 {
		r.UptimeFrac = float64(s.upTicks) / float64(s.windowTicks)
	}
	if h := window.Hours(); h > 0 {
		r.Throughput = r.ProcessedGB / h
	}
	// Perf per Ah uses the wear-weighted throughput through the buffer, so
	// deep discharges (which consume disproportionate battery life) count
	// at their true cost.
	daily := s.Bank.TotalThroughput()
	if daily > 0 {
		r.PerfPerAh = r.ProcessedGB / float64(daily)
	}
	r.WearAhPerUnit = daily / units.AmpHour(s.cfg.BatteryCount)
	if s.Secondary != nil {
		r.GenStarts = s.Secondary.Starts()
		r.GenRunHours = s.Secondary.RunTime().Hours()
		r.GenKWh = s.Secondary.Delivered().KWh()
		r.GenFuelCost = s.Secondary.FuelCost()
		r.GenWastedKWh = s.Secondary.Wasted().KWh()
	}
	r.AuxKWh = s.auxEnergy.KWh()
	r.ServiceLifeYear = calendarLifeYears
	if daily > 0 {
		total := float64(s.cfg.BatteryParams.LifetimeAh) * float64(s.cfg.BatteryCount)
		if cyc := total / float64(daily) / 365; cyc < r.ServiceLifeYear {
			r.ServiceLifeYear = cyc
		}
	}
	return r
}
