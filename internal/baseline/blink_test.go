package baseline

import (
	"testing"
	"time"

	"insure/internal/core"
	"insure/internal/sim"
	"insure/internal/trace"
)

func TestBlinkManagerBasics(t *testing.T) {
	m := NewBlink()
	if m.Name() != "blink" {
		t.Errorf("name = %q", m.Name())
	}
	if m.Period() != 10*time.Second {
		t.Errorf("period = %v", m.Period())
	}
}

func TestBlinkRunsFullWidth(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := NewBlink()
	maxSeen := 0
	for tod := 8 * time.Hour; tod < 14*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if v := sys.Cluster.TargetVMs(); v > maxSeen {
			maxSeen = v
		}
	}
	if maxSeen != 8 {
		t.Errorf("blink peaked at %d VMs, want the full 8", maxSeen)
	}
}

func TestBlinkDutyTracksBudget(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemLow())
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := NewBlink()
	minDuty := 1.0
	for tod := 8 * time.Hour; tod < 18*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		for _, n := range sys.Cluster.Nodes() {
			if n.Running() && n.Duty() < minDuty {
				minDuty = n.Duty()
			}
		}
	}
	if minDuty >= 1 {
		t.Error("blink never throttled on a weak budget")
	}
}

// TestInSUREBeatsBlink makes the paper's prior-art comparison concrete: on
// a constrained budget Blink's always-on idle floor and unified buffer lose
// to InSURE's reconfigurable buffer and right-sized allocation.
func TestInSUREBeatsBlink(t *testing.T) {
	if testing.Short() {
		t.Skip("paired full-day runs")
	}
	tr := trace.FullSystemLow()
	run := func(mgr sim.Manager) sim.Result {
		cfg := sim.DefaultConfig(tr)
		sys, err := sim.New(cfg, sim.NewVideoSink())
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(mgr)
	}
	opt := run(core.New(core.DefaultConfig(), 6))
	blk := run(NewBlink())
	if opt.ProcessedGB <= blk.ProcessedGB {
		t.Errorf("InSURE %.1f GB not above blink %.1f GB", opt.ProcessedGB, blk.ProcessedGB)
	}
	if opt.WearAhPerUnit >= blk.WearAhPerUnit {
		t.Errorf("InSURE wear %.2f not below blink %.2f",
			float64(opt.WearAhPerUnit), float64(blk.WearAhPerUnit))
	}
	// Blink's defining inefficiency: energy spent per GB is higher because
	// the idle floor runs all day.
	if opt.ProcessedGB/opt.LoadKWh <= blk.ProcessedGB/blk.LoadKWh {
		t.Errorf("InSURE GB/kWh %.1f not above blink %.1f",
			opt.ProcessedGB/opt.LoadKWh, blk.ProcessedGB/blk.LoadKWh)
	}
}
