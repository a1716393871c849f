// Package insure is a faithful, simulation-backed reproduction of
// "Towards Sustainable In-Situ Server Systems in the Big Data Era"
// (Li, Hu, Liu, et al., ISCA 2015).
//
// InSURE is a standalone (off-grid) in-situ server system powered by solar
// energy through a reconfigurable distributed battery buffer, coordinated by
// a joint spatio-temporal power management scheme. This package is the
// public facade over the full substrate: battery electrochemistry (KiBaM),
// solar supply with P&O MPPT, relay fabric, PLC + Modbus TCP control plane,
// server cluster with DVFS and VM checkpointing, calibrated workloads, the
// InSURE energy manager, the grid-style baseline, and the paper's cost
// models.
//
// Quick start:
//
//	report, err := insure.Run(insure.Config{
//		Day:      insure.Day{Weather: insure.Sunny},
//		Workload: insure.SeismicWorkload(),
//		Policy:   insure.PolicyInSURE,
//	})
//
// Every table and figure of the paper's evaluation can be regenerated with
// Experiment / ExperimentIDs, or from the command line via cmd/insure-bench.
package insure

import (
	"fmt"
	"io"
	"strings"
	"time"

	"insure/internal/baseline"
	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/experiments"
	"insure/internal/genset"
	"insure/internal/server"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
	"insure/internal/wind"
	"insure/internal/workload"
)

// Weather selects the sky model for a simulated day.
type Weather int

const (
	Sunny Weather = iota
	Cloudy
	Rainy
)

func (w Weather) String() string { return w.condition().String() }

func (w Weather) condition() solar.Condition {
	switch w {
	case Cloudy:
		return solar.Cloudy
	case Rainy:
		return solar.Rainy
	default:
		return solar.Sunny
	}
}

// Day describes one simulated solar day.
type Day struct {
	// Weather picks the sky model (default Sunny).
	Weather Weather
	// Seed makes the day reproducible; equal seeds produce identical
	// irradiance (default 2015).
	Seed int64
	// PeakWatts, when positive, scales the day so harvested power peaks at
	// this value (the paper's Figs 20/21 use 1000 W and 500 W budgets).
	PeakWatts float64
	// EnergyKWh, when positive, scales the day to this total harvest
	// (the paper's Table 6 days are 7.9/5.9/3.0 kWh). Ignored when
	// PeakWatts is set.
	EnergyKWh float64
}

func (d Day) trace() *trace.Trace {
	seed := d.Seed
	if seed == 0 {
		seed = 2015
	}
	tr := trace.Synthesize(d.Weather.condition(), seed, time.Second)
	switch {
	case d.PeakWatts > 0:
		return tr.ScaleToPeak(units.Watt(d.PeakWatts))
	case d.EnergyKWh > 0:
		return tr.ScaleToEnergy(units.KiloWattHour(d.EnergyKWh))
	}
	return tr
}

// Workload selects the in-situ application driving the cluster.
type Workload struct {
	name string
	mk   func() sim.Sink
}

// Name returns the workload's identifier.
func (w Workload) Name() string { return w.name }

// SeismicWorkload returns the oil-exploration batch case study: 114 GB
// survey datasets arriving twice a day (§5).
func SeismicWorkload() Workload {
	return Workload{name: "seismic", mk: func() sim.Sink { return sim.NewSeismicSink() }}
}

// SurveillanceWorkload returns the 24-camera video-stream case study
// (0.21 GB/min, §5).
func SurveillanceWorkload() Workload {
	return Workload{name: "video", mk: func() sim.Sink { return sim.NewVideoSink() }}
}

// KernelWorkload returns one of the paper's micro benchmarks by name:
// x264, vips, sort, graph, dedup, or terasort.
func KernelWorkload(name string) (Workload, error) {
	for _, spec := range workload.MicroSuite() {
		if strings.EqualFold(spec.Name, name) {
			s := spec
			return Workload{name: s.Name, mk: func() sim.Sink { return sim.NewMicroSink(s) }}, nil
		}
	}
	return Workload{}, fmt.Errorf("insure: unknown kernel %q", name)
}

// Kernels lists the micro-benchmark names accepted by KernelWorkload.
func Kernels() []string {
	var names []string
	for _, spec := range workload.MicroSuite() {
		names = append(names, spec.Name)
	}
	return names
}

// Policy selects the power manager.
type Policy int

const (
	// PolicyInSURE is the paper's joint spatio-temporal power management
	// over the reconfigurable distributed energy buffer.
	PolicyInSURE Policy = iota
	// PolicyBaseline is the grid-style unified-buffer comparison (§6.4).
	PolicyBaseline
	// PolicyBlink is a Blink-style fast power-state tracker, the prior art
	// of reference [88].
	PolicyBlink
)

func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "baseline"
	case PolicyBlink:
		return "blink"
	default:
		return "InSURE"
	}
}

// Config assembles one simulated deployment.
type Config struct {
	// Day is the solar day to simulate.
	Day Day
	// Workload drives the cluster (default: seismic).
	Workload Workload
	// Policy picks the power manager (default: InSURE).
	Policy Policy
	// Batteries is the energy-buffer size (default 6, the prototype).
	Batteries int
	// Servers is the cluster size (default 4 Xeon nodes).
	Servers int
	// LowPowerNodes swaps the Xeon profile for the Core i7 profile of
	// Table 7.
	LowPowerNodes bool
	// InitialSoC is the buffer's starting state of charge (default 0.5).
	InitialSoC float64
	// Backup fits an optional secondary generator (Fig 6's "Secondary
	// Power"); the InSURE manager bridges renewable droughts with it.
	Backup Backup
	// Survival arms the energy-emergency mode ladder on the InSURE manager:
	// hysteresis-guarded degraded modes, orderly pre-brownout checkpoint
	// shutdown, last-resort genset dispatch (with a Backup fitted), and
	// staged blackstart recovery. Ignored by the other policies.
	Survival bool
	// Wind adds a 1 kW wind turbine on the renewable bus (§2.2 motivates
	// standalone wind/solar systems; the prototype was solar-only).
	Wind WindSite
}

// WindSite classifies the deployment's wind resource.
type WindSite int

const (
	WindNone WindSite = iota
	WindCalm
	WindModerate
	WindWindy
)

func (w WindSite) String() string {
	switch w {
	case WindCalm:
		return "calm"
	case WindModerate:
		return "moderate"
	case WindWindy:
		return "windy"
	default:
		return "none"
	}
}

// Backup selects the optional secondary power source.
type Backup int

const (
	BackupNone Backup = iota
	BackupDiesel
	BackupFuelCell
)

func (b Backup) String() string {
	switch b {
	case BackupDiesel:
		return "diesel"
	case BackupFuelCell:
		return "fuel-cell"
	default:
		return "none"
	}
}

// Report summarises one simulated day with the paper's measurement metrics.
type Report struct {
	Policy   string
	Workload string

	// Service-related metrics (Figs 20/21).
	UptimeFrac   float64 // fraction of the operating window with servers up
	ProcessedGB  float64
	ThroughputGB float64 // GB per operating-window hour
	DelayMinutes float64

	// System-related metrics.
	EnergyAvailWh   float64 // mean stored energy in the buffer
	ServiceLifeYear float64 // projected buffer service life
	PerfPerAh       float64 // GB per wear-weighted amp-hour
	WearAhPerUnit   float64

	// Operating-log statistics (Table 6).
	LoadKWh      float64
	EffectiveKWh float64
	PowerOps     int
	OnOffCycles  int
	VMOps        int
	MinVolt      float64
	EndVolt      float64
	VoltStdDev   float64
	Brownouts    int

	// Energy-flow accounting.
	HarvestedKWh float64
	CurtailedKWh float64

	// Survivability accounting: checkpoints completed versus VM state
	// destroyed by power loss (zero loss is the survivability contract).
	VMsSaved int
	VMsLost  int

	// Backup-generator accounting (zero without a Backup fitted).
	GenStarts    int
	GenRunHours  float64
	GenKWh       float64
	GenFuelCost  float64
	GenWastedKWh float64

	// WindKWh is auxiliary wind generation (zero without a Wind site).
	WindKWh float64
}

func fromResult(r sim.Result) Report {
	return Report{
		Policy:          r.Manager,
		Workload:        r.Workload,
		UptimeFrac:      r.UptimeFrac,
		ProcessedGB:     r.ProcessedGB,
		ThroughputGB:    r.Throughput,
		DelayMinutes:    r.DelayMin,
		EnergyAvailWh:   float64(r.EnergyAvail),
		ServiceLifeYear: r.ServiceLifeYear,
		PerfPerAh:       r.PerfPerAh,
		WearAhPerUnit:   float64(r.WearAhPerUnit),
		LoadKWh:         r.LoadKWh,
		EffectiveKWh:    r.EffectiveKWh,
		PowerOps:        r.PowerOps,
		OnOffCycles:     r.OnOffCycles,
		VMOps:           r.VMOps,
		MinVolt:         float64(r.MinVolt),
		EndVolt:         float64(r.EndVolt),
		VoltStdDev:      r.VoltStdDev,
		Brownouts:       r.Brownouts,
		HarvestedKWh:    r.HarvestedKWh,
		CurtailedKWh:    r.CurtailedKWh,
		VMsSaved:        r.VMsSaved,
		VMsLost:         r.VMsLost,
		GenStarts:       r.GenStarts,
		GenRunHours:     r.GenRunHours,
		GenKWh:          r.GenKWh,
		GenFuelCost:     r.GenFuelCost,
		GenWastedKWh:    r.GenWastedKWh,
		WindKWh:         r.AuxKWh,
	}
}

func (c Config) normalise() Config {
	if c.Workload.mk == nil {
		c.Workload = SeismicWorkload()
	}
	if c.Batteries == 0 {
		c.Batteries = 6
	}
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.InitialSoC == 0 {
		c.InitialSoC = 0.5
	}
	return c
}

func (c Config) build() (*sim.System, sim.Manager, error) {
	cfg := sim.DefaultConfig(c.Day.trace())
	cfg.BatteryCount = c.Batteries
	cfg.ServerCount = c.Servers
	cfg.InitialSoC = c.InitialSoC
	if c.LowPowerNodes {
		cfg.ServerProfile = server.CoreI7()
	}
	switch c.Backup {
	case BackupDiesel:
		cfg.Secondary = genset.New(genset.DieselParams())
	case BackupFuelCell:
		cfg.Secondary = genset.New(genset.FuelCellParams())
	}
	seed := c.Day.Seed
	if seed == 0 {
		seed = 2015
	}
	switch c.Wind {
	case WindCalm:
		cfg.Aux = wind.NewSupply(wind.Calm, seed)
	case WindModerate:
		cfg.Aux = wind.NewSupply(wind.Moderate, seed)
	case WindWindy:
		cfg.Aux = wind.NewSupply(wind.Windy, seed)
	}
	sys, err := sim.New(cfg, c.Workload.mk())
	if err != nil {
		return nil, nil, err
	}
	var mgr sim.Manager
	switch c.Policy {
	case PolicyBaseline:
		mgr = baseline.New(baseline.DefaultConfig())
	case PolicyBlink:
		mgr = baseline.NewBlink()
	default:
		mcfg := core.DefaultConfig()
		if c.Survival {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		mgr = core.New(mcfg, cfg.BatteryCount)
	}
	return sys, mgr, nil
}

// Run simulates one full day under the configured policy.
func Run(c Config) (Report, error) {
	c = c.normalise()
	if c.Batteries < 1 {
		return Report{}, fmt.Errorf("insure: need at least one battery, got %d", c.Batteries)
	}
	if c.Servers < 1 {
		return Report{}, fmt.Errorf("insure: need at least one server, got %d", c.Servers)
	}
	sys, mgr, err := c.build()
	if err != nil {
		return Report{}, err
	}
	return fromResult(sys.Run(mgr)), nil
}

// Compare runs InSURE and the baseline on identical days and workloads —
// the paper's paired-trace methodology (§5) — and returns both reports.
func Compare(c Config) (insureReport, baselineReport Report, err error) {
	c = c.normalise()
	c.Policy = PolicyInSURE
	insureReport, err = Run(c)
	if err != nil {
		return
	}
	c.Policy = PolicyBaseline
	baselineReport, err = Run(c)
	return
}

// BatteryDefaults returns the calibrated parameters of the prototype's
// 12 V / 35 Ah lead-acid units, for inspection and customisation through
// the internal packages.
func BatteryDefaults() string {
	p := battery.DefaultParams()
	return fmt.Sprintf("%.0f Ah, %.0f V nominal, %.0f Ah lifetime throughput",
		float64(p.CapacityAh), float64(p.NominalVolt), float64(p.LifetimeAh))
}

// ExperimentIDs lists every regenerable table and figure.
func ExperimentIDs() []string { return experiments.IDs() }

// Experiment regenerates one paper table or figure (e.g. "fig17",
// "table2") and writes its rendered form to w.
func Experiment(id string, w io.Writer) error {
	tbl, err := experiments.Run(id)
	if err != nil {
		return err
	}
	return tbl.Render(w)
}
