// Package endurance runs multi-day deployment campaigns: the same battery
// bank and power manager operate through a sequence of weather days, so
// wear accumulates exactly as it would in the field. This is how the
// paper's service-life claims (Fig 19, Table 1's 4-year battery life) are
// validated beyond single-day extrapolation.
package endurance

import (
	"fmt"
	"math/rand"
	"time"

	"insure/internal/battery"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
	"insure/internal/units"
)

// Climate generates a weather sequence for a site.
type Climate struct {
	// SunnyFrac, CloudyFrac give the long-run day-type mix; the remainder
	// is rainy. Typical temperate site: 0.5/0.3/0.2.
	SunnyFrac, CloudyFrac float64
	rng                   *rand.Rand
}

// NewClimate returns a reproducible climate.
func NewClimate(sunny, cloudy float64, seed int64) *Climate {
	return &Climate{SunnyFrac: sunny, CloudyFrac: cloudy, rng: rand.New(rand.NewSource(seed))}
}

// Day draws the weather for one day.
func (c *Climate) Day() solar.Condition {
	r := c.rng.Float64()
	switch {
	case r < c.SunnyFrac:
		return solar.Sunny
	case r < c.SunnyFrac+c.CloudyFrac:
		return solar.Cloudy
	default:
		return solar.Rainy
	}
}

// DayOutcome summarises one campaign day.
type DayOutcome struct {
	Day       int
	Weather   solar.Condition
	Result    sim.Result
	WearAh    units.AmpHour // cumulative per-unit wear at end of day
	MeanSoC   float64       // bank state at end of day
	Processed float64       // GB this day
}

// Campaign is a multi-day run configuration.
type Campaign struct {
	// Days is the campaign length.
	Days int
	// Climate draws each day's weather.
	Climate *Climate
	// Seed anchors per-day trace synthesis.
	Seed int64
	// PeakWatts scales each day's trace (0 = natural).
	PeakWatts float64
	// NewSink builds a fresh workload for each day (data arrives daily).
	NewSink func() sim.Sink
	// Manager persists across the whole campaign.
	Manager sim.Manager
}

// Summary aggregates a finished campaign.
type Summary struct {
	Days        []DayOutcome
	TotalGB     float64
	TotalBrown  int
	FinalWearAh units.AmpHour // per-unit, wear-weighted
	// ProjectedLifeYears extrapolates the campaign's daily wear rate
	// against the units' lifetime throughput.
	ProjectedLifeYears float64
}

// Run executes the campaign and returns per-day outcomes plus aggregates.
func Run(c Campaign) (*Summary, error) {
	if c.Days <= 0 {
		return nil, fmt.Errorf("endurance: campaign length %d must be positive", c.Days)
	}
	if c.NewSink == nil || c.Manager == nil {
		return nil, fmt.Errorf("endurance: campaign needs a sink factory and a manager")
	}
	if c.Climate == nil {
		c.Climate = NewClimate(0.5, 0.3, c.Seed)
	}

	params := battery.DefaultParams()
	bank, err := battery.NewBank(params, 6, 0.5)
	if err != nil {
		return nil, err
	}

	s := &Summary{}
	for day := 0; day < c.Days; day++ {
		cond := c.Climate.Day()
		tr := trace.Synthesize(cond, c.Seed+int64(day), time.Second)
		if c.PeakWatts > 0 {
			tr = tr.ScaleToPeak(units.Watt(c.PeakWatts))
		}
		cfg := sim.DefaultConfig(tr)
		cfg.Bank = bank
		sys, err := sim.New(cfg, c.NewSink())
		if err != nil {
			return nil, err
		}
		res := sys.Run(c.Manager)

		wear := bank.TotalThroughput() / units.AmpHour(bank.Size())
		out := DayOutcome{
			Day:       day,
			Weather:   cond,
			Result:    res,
			WearAh:    wear,
			MeanSoC:   bank.MeanSoC(),
			Processed: res.ProcessedGB,
		}
		s.Days = append(s.Days, out)
		s.TotalGB += res.ProcessedGB
		s.TotalBrown += res.Brownouts
	}
	s.FinalWearAh = bank.TotalThroughput() / units.AmpHour(bank.Size())
	if daily := float64(s.FinalWearAh) / float64(c.Days); daily > 0 {
		s.ProjectedLifeYears = float64(params.LifetimeAh) / daily / 365
	}
	return s, nil
}
