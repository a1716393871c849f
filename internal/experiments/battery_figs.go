package experiments

import (
	"context"

	"fmt"
	"time"

	"insure/internal/baseline"
	"insure/internal/battery"
	"insure/internal/core"
	"insure/internal/relay"
	"insure/internal/sim"
	"insure/internal/trace"
	"insure/internal/units"
)

func init() {
	register("fig4a", Fig4a)
	register("fig4b", Fig4b)
	register("fig5", Fig5)
	register("fig14a", Fig14a)
	register("fig14b", Fig14b)
	register("fig15", Fig15)
	register("fig16", Fig16)
}

// Fig4a reproduces the individual-vs-batch charging measurement: charging
// the units one by one under a fixed power budget cuts total charge time.
func Fig4a(ctx context.Context) *Table {
	const (
		n      = 3
		budget = units.Watt(150)
		target = 0.9
		maxSec = 400 * 3600
	)
	run := func(sequential bool) float64 {
		bank := battery.MustNewBank(battery.DefaultParams(), n, 0.2)
		for sec := 0; sec < maxSec; sec++ {
			var pending []int
			for i := 0; i < n; i++ {
				if bank.Unit(i).SoC() < target {
					pending = append(pending, i)
				}
			}
			if len(pending) == 0 {
				return float64(sec) / 3600
			}
			active := pending
			if sequential {
				active = pending[:1]
			}
			bank.ChargeSet(active, budget, time.Second)
			for _, i := range pending[boolToInt(sequential):] {
				if sequential {
					bank.Unit(i).Rest(time.Second)
				}
			}
		}
		return float64(maxSec) / 3600
	}
	seq := run(true)
	batch := run(false)
	t := &Table{
		ID:     "fig4a",
		Title:  "Individual vs batch charging (3 units, 150 W budget, to 90%)",
		Header: []string{"strategy", "hours to full"},
		Rows: [][]string{
			{"one-by-one (individual)", f1(seq)},
			{"all-at-once (batch)", f1(batch)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("individual charging is %.0f%% faster (paper: ~50%%)", (1-seq/batch)*100))
	return t
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Fig4b reproduces the high-load vs low-load discharge measurement with the
// capacity-recovery effect.
func Fig4b(ctx context.Context) *Table {
	high := battery.MustNew(battery.DefaultParams(), 1.0)
	low := battery.MustNew(battery.DefaultParams(), 1.0)
	for i := 0; i < 45*60; i++ {
		high.Discharge(20, time.Second) // high load power
		low.Discharge(3, time.Second)   // low load power
	}
	vHigh, vLow := high.TerminalVoltage(), low.TerminalVoltage()
	availAtSwitch := high.AvailableSoC()
	for i := 0; i < 30*60; i++ {
		high.Rest(time.Second)
		low.Rest(time.Second)
	}
	t := &Table{
		ID:     "fig4b",
		Title:  "High vs low load discharge and capacity recovery (45 min load, 30 min rest)",
		Header: []string{"unit", "V at switch-out", "avail SoC at switch-out", "avail SoC after rest"},
		Rows: [][]string{
			{"Battery-1 (high load, 20 A)", f2(float64(vHigh)), f2(availAtSwitch), f2(high.AvailableSoC())},
			{"Battery-2 (low load, 3 A)", f2(float64(vLow)), f2(low.AvailableSoC()), f2(low.AvailableSoC())},
		},
	}
	t.Notes = append(t.Notes, "high-current discharge collapses the available well; rest recovers it (recovery effect)")
	return t
}

// Fig5 reproduces the 2-hour seismic snapshot on the conventional unified
// buffer: the whole battery pack gets switched out under load.
func Fig5(ctx context.Context) *Table {
	cfg := sim.DefaultConfig(trace.FullSystemLow())
	cfg.InitialSoC = 0.45
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		panic(err)
	}
	m := baseline.New(baseline.DefaultConfig())
	var switchOut time.Duration
	for tod := 7 * time.Hour; tod < 20*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if switchOut == 0 && m.InLockout() {
			switchOut = tod
		}
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Unified-buffer snapshot under seismic load (baseline manager)",
		Header: []string{"event", "value"},
		Rows: [][]string{
			{"batteries switched out at", fmtTod(switchOut)},
			{"brownouts over the day", fmt.Sprintf("%d", sys.Brownouts())},
			{"server on/off cycles", fmt.Sprintf("%d", sys.Cluster.OnOffCycles())},
		},
	}
	t.Notes = append(t.Notes, "the unified buffer disconnects entirely at the protection threshold; InS shuts down (§2.3)")
	return t
}

func fmtTod(d time.Duration) string {
	if d == 0 {
		return "never"
	}
	return fmt.Sprintf("%02d:%02d", int(d.Hours()), int(d.Minutes())%60)
}

// Fig14a demonstrates fast charging: the SPM prioritises low-SoC units and
// concentrates the budget on a subset.
func Fig14a(ctx context.Context) *Table {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		panic(err)
	}
	// Unbalance the bank: units 0 and 1 low, unit 2.. higher.
	sys.Bank.Unit(0).SetSoC(0.35)
	sys.Bank.Unit(1).SetSoC(0.40)
	m := core.New(core.DefaultConfig(), cfg.BatteryCount)
	firstCharge := make([]time.Duration, cfg.BatteryCount)
	for tod := 7 * time.Hour; tod < 12*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		for i := range firstCharge {
			if firstCharge[i] == 0 && sys.Fabric.Pair(i).Mode() == relay.Charging {
				firstCharge[i] = tod
			}
		}
	}
	t := &Table{
		ID:     "fig14a",
		Title:  "Fast charging: low-SoC units are charged first, with a concentrated budget",
		Header: []string{"unit", "initial SoC", "first charged at", "SoC at noon"},
	}
	for i := 0; i < cfg.BatteryCount; i++ {
		init := 0.5
		if i == 0 {
			init = 0.35
		} else if i == 1 {
			init = 0.40
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("battery #%d", i+1), f2(init), fmtTod(firstCharge[i]), f2(sys.Bank.Unit(i).SoC()),
		})
	}
	return t
}

// Fig14b demonstrates discharge balancing: per-unit aggregated discharge
// ends the day nearly equal.
func Fig14b(ctx context.Context) *Table {
	cfg := sim.DefaultConfig(trace.FullSystemLow())
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		panic(err)
	}
	m := core.New(core.DefaultConfig(), cfg.BatteryCount)
	sys.Run(m)
	t := &Table{
		ID:     "fig14b",
		Title:  "Discharge balancing: per-unit aggregated discharge after one day",
		Header: []string{"unit", "raw discharge (Ah)", "wear-weighted (Ah)"},
	}
	for i := 0; i < cfg.BatteryCount; i++ {
		u := sys.Bank.Unit(i)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("battery #%d", i+1),
			f2(float64(u.RawOut())),
			f2(float64(u.Throughput())),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max-min spread: %.2f Ah", float64(sys.Bank.ThroughputSpread())))
	return t
}

// Fig15 regenerates the two evaluation solar traces.
func Fig15(ctx context.Context) *Table {
	hi, lo := trace.HighGeneration(), trace.LowGeneration()
	t := &Table{
		ID:     "fig15",
		Title:  "Solar traces for micro-benchmark evaluation",
		Header: []string{"trace", "avg W", "peak W", "total kWh", "window"},
		Rows: [][]string{
			{"high generation", f0(float64(hi.Average())), f0(float64(hi.Peak())), f1(hi.TotalEnergy().KWh()), "7:00-20:00"},
			{"low generation", f0(float64(lo.Average())), f0(float64(lo.Peak())), f1(lo.TotalEnergy().KWh()), "7:00-20:00"},
		},
		Notes: []string{"paper averages: 1114 W (high), 427 W (low)"},
	}
	return t
}

// Fig16 regenerates the full-day operation trace as an hourly summary with
// the paper's characteristic regions.
func Fig16(ctx context.Context) *Table {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.RecordEvery = time.Minute
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		panic(err)
	}
	m := core.New(core.DefaultConfig(), cfg.BatteryCount)
	sys.Run(m)
	t := &Table{
		ID:     "fig16",
		Title:  "Full-day InSURE operation (hourly summary)",
		Header: []string{"hour", "solar W", "load W", "charging", "discharging", "min V", "VMs"},
	}
	frames := sys.Recorder().Frames()
	byHour := map[int][]sim.Frame{}
	for _, f := range frames {
		byHour[int(f.At.Hours())] = append(byHour[int(f.At.Hours())], f)
	}
	for h := 6; h <= 20; h++ {
		fs := byHour[h]
		if len(fs) == 0 {
			continue
		}
		var solar, load float64
		var charging, discharging int
		minV := 99.0
		vms := 0
		for _, f := range fs {
			solar += float64(f.Solar)
			load += float64(f.Load)
			for i := range f.Modes {
				switch f.Modes[i] {
				case relay.Charging:
					charging++
				case relay.Discharging:
					discharging++
				}
				if float64(f.Volts[i]) < minV {
					minV = float64(f.Volts[i])
				}
			}
			if f.RunningVM > vms {
				vms = f.RunningVM
			}
		}
		n := float64(len(fs))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%02d:00", h),
			f0(solar / n), f0(load / n),
			f1(float64(charging) / n), f1(float64(discharging) / n),
			f2(minV), fmt.Sprintf("%d", vms),
		})
	}
	t.Notes = append(t.Notes,
		"region A: morning battery charging; B: power tracking; C: temporal control; D: supply-demand match; E: fluctuating budget")
	return t
}
