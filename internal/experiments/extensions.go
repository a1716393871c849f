package experiments

import (
	"context"

	"fmt"
	"time"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/endurance"
	"insure/internal/faults"
	"insure/internal/genset"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
	"insure/internal/wind"
)

// The ext* experiments go beyond the paper's evaluation into the design
// space it describes but did not prototype: the secondary power feed of
// Fig 6, the wind/solar hybrid of §2.2, forecast-based lookahead planning
// (the stated future work), and multi-day endurance validation of the
// service-life model.

func init() {
	register("extbackup", ExtBackup)
	register("exthybrid", ExtHybrid)
	register("extforecast", ExtForecast)
	register("extendurance", ExtEndurance)
	register("extpriorart", ExtPriorArt)
	register("extfaults", ExtFaults)
	register("extsurvival", ExtSurvival)
}

// ExtBackup quantifies the secondary power feed: a dark rainy day with no
// backup, a diesel backup, and a fuel-cell backup.
func ExtBackup(ctx context.Context) *Table {
	t := &Table{
		ID:     "extbackup",
		Title:  "Secondary power feed on a dark rainy day (video workload)",
		Header: []string{"backup", "uptime", "GB done", "gen kWh", "fuel $", "starts"},
	}
	dark := trace.Synthesize(solar.Rainy, 2015, time.Second).ScaleToPeak(200)
	cases := []struct {
		name string
		gen  func() *genset.Generator
	}{
		{"none", func() *genset.Generator { return nil }},
		{"diesel", func() *genset.Generator { return genset.New(genset.DieselParams()) }},
		{"fuel cell", func() *genset.Generator { return genset.New(genset.FuelCellParams()) }},
	}
	for _, c := range cases {
		cfg := sim.DefaultConfig(dark)
		cfg.Secondary = c.gen()
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			panic(err)
		}
		res := sys.Run(core.New(core.DefaultConfig(), cfg.BatteryCount))
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			f1(res.GenKWh),
			f2(res.GenFuelCost),
			fmt.Sprintf("%d", res.GenStarts),
		})
	}
	t.Notes = append(t.Notes, "renewables stay primary: the generator only bridges droughts (Fig 7's S flows)")
	return t
}

// ExtHybrid quantifies the wind/solar hybrid of §2.2 across wind regimes
// on a rainy (solar-poor) day.
func ExtHybrid(ctx context.Context) *Table {
	t := &Table{
		ID:     "exthybrid",
		Title:  "Wind/solar hybrid on a rainy day (video workload)",
		Header: []string{"wind site", "uptime", "GB done", "wind kWh", "wear Ah/unit"},
	}
	day := trace.Synthesize(solar.Rainy, 2015, time.Second)
	regimes := []struct {
		name string
		aux  sim.AuxSupply
	}{
		{"none", nil},
		{"calm", wind.NewSupply(wind.Calm, 2015)},
		{"moderate", wind.NewSupply(wind.Moderate, 2015)},
		{"windy", wind.NewSupply(wind.Windy, 2015)},
	}
	for _, r := range regimes {
		cfg := sim.DefaultConfig(day)
		cfg.Aux = r.aux
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			panic(err)
		}
		res := sys.Run(core.New(core.DefaultConfig(), cfg.BatteryCount))
		t.Rows = append(t.Rows, []string{
			r.name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			f1(res.AuxKWh),
			f2(float64(res.WearAhPerUnit)),
		})
	}
	return t
}

// ExtForecast compares the fixed 25% cloud margin against the
// clear-sky-ratio lookahead planner on a cloudy day.
func ExtForecast(ctx context.Context) *Table {
	t := &Table{
		ID:     "extforecast",
		Title:  "Lookahead planning vs fixed cloud margin (cloudy day, seismic)",
		Header: []string{"planner", "uptime", "GB done", "brownouts", "wear Ah/unit"},
	}
	day := trace.Synthesize(solar.Cloudy, 2015, time.Second).ScaleToPeak(units.Watt(1000))
	for _, useForecast := range []bool{false, true} {
		cfg := sim.DefaultConfig(day)
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			panic(err)
		}
		mc := core.DefaultConfig()
		mc.UseForecast = useForecast
		res := sys.Run(core.New(mc, cfg.BatteryCount))
		name := "fixed 25% margin"
		if useForecast {
			name = "clear-sky-ratio forecast"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			fmt.Sprintf("%d", res.Brownouts),
			f2(float64(res.WearAhPerUnit)),
		})
	}
	t.Notes = append(t.Notes, "the paper's stated future work (§6.3): trading battery budget against performance with better supply knowledge")
	return t
}

// ExtEndurance runs a two-week mixed-weather campaign and validates the
// service-life projection against Table 1's 4-year battery design life.
func ExtEndurance(ctx context.Context) *Table {
	t := &Table{
		ID:     "extendurance",
		Title:  "14-day mixed-weather campaign (seismic workload)",
		Header: []string{"manager", "total GB", "wear Ah/unit", "projected life (yr)", "brownouts"},
	}
	for _, name := range []string{"InSURE"} {
		sum, err := endurance.Run(endurance.Campaign{
			Days:      14,
			Seed:      2015,
			PeakWatts: 1000,
			NewSink:   func() sim.Sink { return sim.NewSeismicSink() },
			Manager:   core.New(core.DefaultConfig(), 6),
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			f0(sum.TotalGB),
			f1(float64(sum.FinalWearAh)),
			f1(sum.ProjectedLifeYears),
			fmt.Sprintf("%d", sum.TotalBrown),
		})
	}
	t.Notes = append(t.Notes, "Table 1 assumes a 4-year battery life; InSURE's management should meet or beat it")
	return t
}

// ExtFaults injects the same mid-day fault storm — a battery unit losing
// 60% of its plates at 12h30m and a discharge relay stuck open at 13h —
// into an InSURE-managed plant and the unified-buffer baseline, and reports
// the availability each keeps. InSURE's fault screens quarantine the
// casualties (Fig 8's Offline state) and re-balance the remaining bank; the
// baseline has no per-unit visibility and just rides whatever the plant
// gives it.
func ExtFaults(ctx context.Context) *Table {
	t := &Table{
		ID:     "extfaults",
		Title:  "Availability under injected faults (high-solar day, seismic)",
		Header: []string{"manager", "uptime", "GB done", "brownouts", "quarantined"},
	}
	const storm = "bat:2@12h30m:0.6,relay-open:4@13h"
	managers := []struct {
		name string
		mk   func(n int) sim.Manager
	}{
		{"InSURE", func(n int) sim.Manager { return core.New(core.DefaultConfig(), n) }},
		{"baseline (unified buffer)", func(n int) sim.Manager { return baseline.New(baseline.DefaultConfig()) }},
	}
	for _, m := range managers {
		cfg := sim.DefaultConfig(trace.FullSystemHigh())
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			panic(err)
		}
		plan, err := faults.Parse(storm)
		if err != nil {
			panic(err)
		}
		in := faults.NewInjector(plan, faults.Target{Panel: sys.Panel})
		sys.SetTickHook(func(tod time.Duration) { in.Tick(tod) })
		mgr := m.mk(cfg.BatteryCount)
		res := sys.Run(mgr)
		quarantined := "-"
		if c, ok := mgr.(*core.Manager); ok {
			quarantined = fmt.Sprintf("%d", c.QuarantinedCount())
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			fmt.Sprintf("%d", res.Brownouts),
			quarantined,
		})
	}
	t.Notes = append(t.Notes, "graceful degradation: the faulted units are quarantined and the remaining bank re-balanced within one control period")
	return t
}

// ExtSurvival quantifies the energy-emergency mode ladder on the paper's
// 427 W low-generation day with a storm surge taking out most of the bank's
// capacity at midday — the emergency the reactive manager cannot see
// coming. With survivability off the plant crash-browns out and loses VM
// state; the ladder sheds load, checkpoints ahead of depletion, and (with a
// genset fitted) bridges the checkpoint window on diesel.
func ExtSurvival(ctx context.Context) *Table {
	t := &Table{
		ID:     "extsurvival",
		Title:  "Energy-emergency survivability (427 W low-generation day + midday surge, video)",
		Header: []string{"manager", "uptime", "GB done", "brownouts", "VMs lost", "VMs saved", "ladder moves", "fuel $"},
	}
	const surge = "bat:0@15h:0.85,bat:1@15h10m:0.85,bat:2@15h20m:0.85,bat:3@15h30m:0.85,bat:4@15h40m:0.85"
	cases := []struct {
		name     string
		survival bool
		gen      func() *genset.Generator
	}{
		{"reactive (survival off)", false, func() *genset.Generator { return nil }},
		{"survival ladder", true, func() *genset.Generator { return nil }},
		{"survival ladder + diesel", true, func() *genset.Generator { return genset.New(genset.DieselParams()) }},
	}
	for _, c := range cases {
		cfg := sim.DefaultConfig(trace.LowGeneration())
		// Mid-drought posture: the preceding storm days have already pulled
		// the buffer down to its floor region when this day begins.
		cfg.InitialSoC = 0.30
		cfg.Secondary = c.gen()
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			panic(err)
		}
		plan, err := faults.Parse(surge)
		if err != nil {
			panic(err)
		}
		in := faults.NewInjector(plan, faults.Target{Panel: sys.Panel})
		sys.SetTickHook(func(tod time.Duration) { in.Tick(tod) })
		mcfg := core.DefaultConfig()
		if c.survival {
			mcfg.Survival = core.DefaultSurvivalConfig()
		}
		mgr := core.New(mcfg, cfg.BatteryCount)
		res := sys.Run(mgr)
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			fmt.Sprintf("%d", res.Brownouts),
			fmt.Sprintf("%d", res.VMsLost),
			fmt.Sprintf("%d", res.VMsSaved),
			fmt.Sprintf("%d", mgr.ModeTransitions()),
			f2(res.GenFuelCost),
		})
	}
	t.Notes = append(t.Notes, "zero uncheckpointed loss is the survivability contract: the ladder checkpoints before projected depletion instead of reacting to it")
	return t
}

// ExtPriorArt compares InSURE against both prior-art management styles the
// paper discusses: the Parasol/GreenSwitch-style baseline (§6.4) and a
// Blink-style fast power-state tracker ([88]).
func ExtPriorArt(ctx context.Context) *Table {
	t := &Table{
		ID:     "extpriorart",
		Title:  "Prior-art comparison on the constrained budget (500 W, video)",
		Header: []string{"manager", "uptime", "GB done", "GB per kWh", "wear Ah/unit", "brownouts"},
	}
	day := trace.FullSystemLow()
	managers := []struct {
		name string
		mk   func() sim.Manager
	}{
		{"InSURE", func() sim.Manager { return core.New(core.DefaultConfig(), 6) }},
		{"baseline (unified buffer)", func() sim.Manager { return baseline.New(baseline.DefaultConfig()) }},
		{"blink (power-state tracking)", func() sim.Manager { return baseline.NewBlink() }},
	}
	for _, m := range managers {
		cfg := sim.DefaultConfig(day)
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			panic(err)
		}
		res := sys.Run(m.mk())
		perKWh := 0.0
		if res.LoadKWh > 0 {
			perKWh = res.ProcessedGB / res.LoadKWh
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%.0f%%", res.UptimeFrac*100),
			f1(res.ProcessedGB),
			f1(perKWh),
			f2(float64(res.WearAhPerUnit)),
			fmt.Sprintf("%d", res.Brownouts),
		})
	}
	t.Notes = append(t.Notes, "the paper's related-work claims made concrete: Blink wastes the idle floor; the unified buffer trips protection")
	return t
}
