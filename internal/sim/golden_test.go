package sim_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"insure/internal/baseline"
	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// TestCampaignResultsGolden pins a paired-trace campaign — Table 6's sunny,
// cloudy and rainy days under InSURE and under the baseline — to one FNV-1a
// hash of its Results. The %#v verb prints every float at full round-trip
// precision (it bypasses the units' rounding String methods), so any change
// to the plant's arithmetic, however small, moves the hash.
func TestCampaignResultsGolden(t *testing.T) {
	const want = 0x2756becb32a34c39

	var runs []sim.CampaignRun
	for _, sky := range []solar.Condition{solar.Sunny, solar.Cloudy, solar.Rainy} {
		tr := trace.Table6Day(sky, 2015)
		for _, insure := range []bool{true, false} {
			insure := insure
			runs = append(runs, sim.CampaignRun{
				Name: fmt.Sprintf("%v/insure=%v", sky, insure),
				Setup: func(a *sim.Arena) (*sim.System, sim.Manager, error) {
					cfg := sim.DefaultConfig(tr)
					cfg.Arena = a
					sys, err := sim.New(cfg, sim.NewSeismicSink())
					if err != nil {
						return nil, nil, err
					}
					if insure {
						return sys, core.New(core.DefaultConfig(), cfg.BatteryCount), nil
					}
					return sys, baseline.New(baseline.DefaultConfig()), nil
				},
				Transient: true,
			})
		}
	}
	res, err := sim.RunCampaign(context.Background(), 0, runs)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, r := range res {
		fmt.Fprintf(h, "%d %#v\n", i, r)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("campaign results hash = %#x, want %#x", got, want)
	}
}
