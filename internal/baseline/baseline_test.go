package baseline

import (
	"testing"
	"time"

	"insure/internal/sim"
	"insure/internal/trace"
)

func newSystem(t *testing.T, tr *trace.Trace, sink sim.Sink) *sim.System {
	t.Helper()
	cfg := sim.DefaultConfig(tr)
	cfg.RecordEvery = time.Minute
	sys, err := sim.New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestManagerBasics(t *testing.T) {
	m := New(DefaultConfig())
	if m.Name() != "baseline" {
		t.Errorf("name = %q", m.Name())
	}
	if m.Period() <= 0 {
		t.Error("period must be positive")
	}
}

func TestUnifiedBufferMovesTogether(t *testing.T) {
	// §2.3: the conventional unified buffer is in either charging or
	// discharging mode as a whole — never mixed.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig())
	for tod := 7 * time.Hour; tod < 18*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if tod%(5*time.Minute) != 0 {
			continue
		}
		_, ch, dis := sys.Fabric.AppendByMode(nil, nil, nil)
		charging, discharging := len(ch), len(dis)
		if charging > 0 && discharging > 0 {
			t.Fatalf("mixed buffer modes at %v: %d charging, %d discharging", tod, charging, discharging)
		}
		if n := charging + discharging; n != 0 && n != 6 {
			t.Fatalf("partial pack engagement at %v: %d units", tod, n)
		}
	}
}

func TestLockoutAfterDeepDischarge(t *testing.T) {
	// Fig 5: under sustained seismic load on a weak supply, the pack
	// voltage trips and the batteries are switched out.
	cfg := sim.DefaultConfig(trace.FullSystemLow())
	cfg.InitialSoC = 0.35
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	tripped := false
	for tod := 7 * time.Hour; tod < 19*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if m.InLockout() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Error("unified buffer never tripped protection on a weak day")
	}
}

func TestLockoutRecoversAfterRecharge(t *testing.T) {
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.InitialSoC = 0.2
	sys, err := sim.New(cfg, sim.NewVideoSink())
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	var states []bool
	for tod := 7 * time.Hour; tod < 18*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if tod%time.Minute == 0 {
			states = append(states, m.InLockout())
		}
	}
	// If the pack ever locked out, it must also have recovered by midday
	// sun (reconnect at 60% SoC).
	saw, recovered := false, false
	for _, locked := range states {
		if locked {
			saw = true
		}
		if saw && !locked {
			recovered = true
		}
	}
	if saw && !recovered {
		t.Error("pack locked out and never reconnected despite a sunny day")
	}
}

func TestBaselineRunsAggressiveVMCounts(t *testing.T) {
	// §6.4: the baseline deploys as many instances as the instantaneous
	// budget allows — 8 VMs under good sun — instead of InSURE's
	// efficiency-driven 4.
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewSeismicSink())
	m := New(DefaultConfig())
	max := 0
	for tod := 7 * time.Hour; tod < 18*time.Hour; tod += time.Second {
		sys.Tick(tod, m)
		if v := sys.Cluster.TargetVMs(); v > max {
			max = v
		}
	}
	if max < 6 {
		t.Errorf("baseline peaked at %d VMs; expected aggressive allocation", max)
	}
}

func TestBaselineFullDayCompletes(t *testing.T) {
	sys := newSystem(t, trace.FullSystemHigh(), sim.NewVideoSink())
	res := sys.Run(New(DefaultConfig()))
	if res.Manager != "baseline" {
		t.Errorf("manager = %q", res.Manager)
	}
	if res.ProcessedGB <= 0 {
		t.Error("baseline processed nothing on a good day")
	}
}
