package server

import (
	"math"
	"testing"
	"time"

	"insure/internal/units"
)

func TestNodeLifecycle(t *testing.T) {
	n := NewNode(Xeon())
	if n.State() != Off || n.Power() != 0 {
		t.Fatal("new node should be off and dark")
	}
	n.PowerOn()
	if n.State() != Restoring {
		t.Fatalf("state after PowerOn = %v", n.State())
	}
	// Restore takes 8 minutes; no progress during it.
	for i := 0; i < 8; i++ {
		if work := n.Step(time.Minute); work != 0 {
			t.Fatal("work done while restoring")
		}
	}
	if n.State() != On {
		t.Fatalf("state after restore = %v", n.State())
	}
	n.PowerOff()
	if n.State() != Checkpointing {
		t.Fatalf("state after PowerOff = %v", n.State())
	}
	for i := 0; i < 7; i++ {
		n.Step(time.Minute)
	}
	if n.State() != Off {
		t.Fatalf("state after checkpoint = %v", n.State())
	}
	if n.OnOffCycles() != 1 {
		t.Errorf("cycles = %d, want 1", n.OnOffCycles())
	}
}

func TestOnOffDisruptionIsAbout15Minutes(t *testing.T) {
	// §2.3: "about 15 minutes for each server On/Off power cycle" — at
	// full occupancy (2 VMs' state to save and restore).
	p := Xeon()
	total := p.CheckpointFor(p.VMSlots) + p.RestoreFor(p.VMSlots)
	if total < 12*time.Minute || total > 18*time.Minute {
		t.Errorf("cycle disruption = %v, want ~15 min", total)
	}
	// A node with less VM state cycles faster.
	if p.CheckpointFor(1) >= p.CheckpointFor(2) {
		t.Error("checkpoint time should scale with VM state")
	}
}

func TestNodePowerEnvelope(t *testing.T) {
	n := NewNode(Xeon())
	n.PowerOn()
	for i := 0; i < 10; i++ {
		n.Step(time.Minute)
	}
	n.SetActiveVMs(2)
	n.SetUtil(1)
	n.SetDuty(1)
	if got := n.Power(); got != 450 {
		t.Errorf("full-tilt power = %v, want 450 W", got)
	}
	n.SetUtil(0)
	if got := n.Power(); got != 280 {
		t.Errorf("idle-util power = %v, want 280 W", got)
	}
}

// TestDrawMatchesNodePower pins the load model the managers plan with to
// the draw the nodes report, bit for bit, on both profiles: Draw of k full
// nodes is k times a full On node's Power, a partly filled last node adds
// that node's Power, and TransitionDraw is Power while a node restores or
// checkpoints.
func TestDrawMatchesNodePower(t *testing.T) {
	for _, p := range []Profile{Xeon(), CoreI7()} {
		if got := p.Draw(0, 1, 1); got != 0 {
			t.Errorf("%s: Draw of 0 VMs = %v, want 0", p.Name, got)
		}
		for _, util := range []float64{0, 0.41, 1} {
			for _, duty := range []float64{0.1, 0.55, 1} {
				on := make([]units.Watt, p.VMSlots+1) // an On node's Power by occupancy
				for vms := 1; vms <= p.VMSlots; vms++ {
					n := NewNode(p)
					n.SetActiveVMs(vms)
					n.SetUtil(util)
					n.SetDuty(duty)
					n.PowerOn()
					if got := n.Power(); got != p.TransitionDraw() {
						t.Errorf("%s: restoring Power %v, TransitionDraw %v", p.Name, got, p.TransitionDraw())
					}
					for n.State() != On {
						n.Step(time.Minute)
					}
					on[vms] = n.Power()
					n.PowerOff()
					if got := n.Power(); got != p.TransitionDraw() {
						t.Errorf("%s: checkpointing Power %v, TransitionDraw %v", p.Name, got, p.TransitionDraw())
					}
				}
				for k := 0; k <= 4; k++ {
					for rem := 0; rem < p.VMSlots; rem++ {
						if k == 0 && rem == 0 {
							continue
						}
						want := float64(k) * float64(on[p.VMSlots])
						if rem > 0 {
							want += float64(on[rem])
						}
						if got := p.Draw(k*p.VMSlots+rem, util, duty); got != units.Watt(want) {
							t.Errorf("%s util %v duty %v: Draw(%d) = %v, want %v",
								p.Name, util, duty, k*p.VMSlots+rem, got, want)
						}
					}
				}
			}
		}
	}
}

func TestSeismicPowerCalibration(t *testing.T) {
	// Table 2: the 8-VM seismic configuration averages ~1397 W over four
	// nodes (~350 W/node) and the 4-VM configuration ~696 W over two.
	const seismicUtil = 0.41
	n := NewNode(Xeon())
	n.PowerOn()
	for i := 0; i < 10; i++ {
		n.Step(time.Minute)
	}
	n.SetActiveVMs(2)
	n.SetUtil(seismicUtil)
	got := float64(n.Power())
	if math.Abs(got-349) > 10 {
		t.Errorf("per-node seismic power = %.0f W, want ~349", got)
	}
}

func TestDutyCycleScalesPowerAndWork(t *testing.T) {
	n := NewNode(Xeon())
	n.PowerOn()
	for i := 0; i < 10; i++ {
		n.Step(time.Minute)
	}
	n.SetActiveVMs(2)
	n.SetUtil(0.8)
	n.SetDuty(1)
	pFull, wFull := n.Power(), n.Step(time.Hour)
	n.SetDuty(0.5)
	pHalf, wHalf := n.Power(), n.Step(time.Hour)
	if pHalf >= pFull {
		t.Errorf("half duty power %v not below full %v", pHalf, pFull)
	}
	if math.Abs(wHalf-wFull/2) > 1e-9 {
		t.Errorf("half duty work = %v, want %v", wHalf, wFull/2)
	}
	if pHalf <= n.Profile().IdlePower {
		t.Error("duty scaling must not go below idle power")
	}
}

func TestDutyClamp(t *testing.T) {
	n := NewNode(Xeon())
	n.SetDuty(5)
	if n.Duty() != 1 {
		t.Errorf("duty = %v, want clamp to 1", n.Duty())
	}
	n.SetDuty(0)
	if n.Duty() != 0.1 {
		t.Errorf("duty = %v, want clamp to 0.1", n.Duty())
	}
}

func TestClusterAllocatorPacksNodes(t *testing.T) {
	c := NewCluster(Xeon(), 4)
	c.SetTargetVMs(3)
	// 3 VMs need two nodes (2 slots each): first full, second half.
	if c.Nodes()[0].ActiveVMs() != 2 || c.Nodes()[1].ActiveVMs() != 1 {
		t.Errorf("allocation = %d,%d", c.Nodes()[0].ActiveVMs(), c.Nodes()[1].ActiveVMs())
	}
	if c.Nodes()[2].State() != Off || c.Nodes()[3].State() != Off {
		t.Error("spare nodes should stay off")
	}
	if c.Nodes()[0].State() != Restoring {
		t.Error("allocated node should be powering on")
	}
}

func TestClusterTargetClamp(t *testing.T) {
	c := NewCluster(Xeon(), 2)
	c.SetTargetVMs(99)
	if c.TargetVMs() != 4 {
		t.Errorf("target = %d, want clamp to 4 slots", c.TargetVMs())
	}
	c.SetTargetVMs(-3)
	if c.TargetVMs() != 0 {
		t.Errorf("target = %d, want 0", c.TargetVMs())
	}
}

func TestClusterScaleDownPowersOff(t *testing.T) {
	c := NewCluster(Xeon(), 4)
	c.SetTargetVMs(8)
	settle(c, 10*time.Minute)
	if got := c.RunningVMs(); got != 8 {
		t.Fatalf("running VMs = %d, want 8", got)
	}
	c.SetTargetVMs(4)
	if c.Nodes()[2].State() != Checkpointing || c.Nodes()[3].State() != Checkpointing {
		t.Error("surplus nodes should checkpoint on scale-down")
	}
	settle(c, 10*time.Minute)
	if got := c.OnOffCycles(); got != 2 {
		t.Errorf("on/off cycles = %d, want 2", got)
	}
}

func settle(c *Cluster, d time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += time.Minute {
		c.Step(time.Minute)
	}
}

func TestClusterWorkAccounting(t *testing.T) {
	c := NewCluster(Xeon(), 4)
	c.SetUtil(0.5)
	c.SetTargetVMs(8)
	settle(c, 10*time.Minute)
	work := c.Step(time.Hour)
	if math.Abs(work-8) > 1e-9 {
		t.Errorf("work = %v VM-hours, want 8", work)
	}
}

func TestClusterShutdown(t *testing.T) {
	c := NewCluster(Xeon(), 4)
	c.SetTargetVMs(6)
	settle(c, 10*time.Minute)
	c.Shutdown()
	settle(c, 10*time.Minute)
	if c.AnyRunning() {
		t.Error("nodes still running after shutdown")
	}
	if c.RunningVMs() != 0 {
		t.Error("VMs still allocated after shutdown")
	}
}

func TestClusterEnergyAccumulates(t *testing.T) {
	c := NewCluster(Xeon(), 2)
	c.SetTargetVMs(4)
	settle(c, time.Hour)
	e := c.Energy()
	if e <= 0 {
		t.Fatal("no energy consumed")
	}
	// Two nodes for an hour: bounded by 2×450 Wh.
	if e > units.WattHour(2*450) {
		t.Errorf("energy %v exceeds physical bound", e)
	}
}

func TestOpsCounters(t *testing.T) {
	c := NewCluster(Xeon(), 4)
	c.SetTargetVMs(8)
	c.SetTargetVMs(8) // no-op must not count
	c.SetTargetVMs(4)
	if got := c.VMOps(); got != 2 {
		t.Errorf("VM ops = %d, want 2", got)
	}
	if c.PowerOps() == 0 {
		t.Error("power ops not counted")
	}
}

func TestCoreI7EfficiencyAdvantage(t *testing.T) {
	// Table 7: the low-power node processes far more data per kWh.
	xeon, i7 := NewNode(Xeon()), NewNode(CoreI7())
	for _, n := range []*Node{xeon, i7} {
		n.PowerOn()
		for i := 0; i < 10; i++ {
			n.Step(time.Minute)
		}
		n.SetActiveVMs(2)
		n.SetUtil(0.8)
	}
	xw, iw := 0.0, 0.0
	for i := 0; i < 60; i++ {
		xw += xeon.Step(time.Minute)
		iw += i7.Step(time.Minute)
	}
	xeonPerKWh := xw / xeon.Energy().KWh()
	i7PerKWh := iw / i7.Energy().KWh()
	if ratio := i7PerKWh / xeonPerKWh; ratio < 4 {
		t.Errorf("i7 work/kWh advantage = %.1fx, want >= 4x (paper: 5–15x)", ratio)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Off: "off", Restoring: "restoring", On: "on", Checkpointing: "checkpointing"} {
		if s.String() != want {
			t.Errorf("state %d = %q", s, s.String())
		}
	}
}

func TestPowerOffDuringRestore(t *testing.T) {
	n := NewNode(Xeon())
	n.SetActiveVMs(2)
	n.PowerOn()
	n.Step(time.Minute) // mid-restore
	n.PowerOff()
	if n.State() != Checkpointing {
		t.Fatalf("state = %v, want checkpointing", n.State())
	}
	for i := 0; i < 10; i++ {
		n.Step(time.Minute)
	}
	if n.State() != Off {
		t.Errorf("state = %v after checkpoint, want off", n.State())
	}
}

func TestStepWhileOffDoesNothing(t *testing.T) {
	n := NewNode(Xeon())
	if w := n.Step(time.Hour); w != 0 {
		t.Errorf("off node did work %v", w)
	}
	if n.Energy() != 0 {
		t.Errorf("off node consumed %v", n.Energy())
	}
}

func TestSetUtilClamps(t *testing.T) {
	n := NewNode(Xeon())
	n.SetUtil(2)
	n.PowerOn()
	for i := 0; i < 10; i++ {
		n.Step(time.Minute)
	}
	n.SetActiveVMs(2)
	if p := n.Power(); p > n.Profile().PeakPower {
		t.Errorf("clamped util still exceeds peak: %v", p)
	}
	n.SetUtil(-1)
	if p := n.Power(); p != n.Profile().IdlePower {
		t.Errorf("negative util power = %v, want idle", p)
	}
}

func TestSetActiveVMsClamps(t *testing.T) {
	n := NewNode(Xeon())
	n.SetActiveVMs(99)
	if n.ActiveVMs() != 2 {
		t.Errorf("active VMs = %d, want slot clamp 2", n.ActiveVMs())
	}
	n.SetActiveVMs(-1)
	if n.ActiveVMs() != 0 {
		t.Errorf("active VMs = %d, want 0", n.ActiveVMs())
	}
}

func TestCoreI7ProfileShape(t *testing.T) {
	p := CoreI7()
	if p.IdlePower >= p.PeakPower {
		t.Error("idle above peak")
	}
	if p.IdlePower >= Xeon().IdlePower {
		t.Error("i7 idle should be far below Xeon idle")
	}
	if cyc := p.CheckpointFor(2) + p.RestoreFor(2); cyc >= Xeon().CheckpointFor(2)+Xeon().RestoreFor(2) {
		t.Error("i7 power cycles should be cheaper than Xeon's")
	}
}

func TestClusterTotalSlots(t *testing.T) {
	c := NewCluster(Xeon(), 3)
	if c.TotalVMSlots() != 6 {
		t.Errorf("slots = %d", c.TotalVMSlots())
	}
	if c.Size() != 3 {
		t.Errorf("size = %d", c.Size())
	}
}

// TestCheckpointRestoreEdgeCases pins the Profile timing model at its
// corners: zero VMs costs the bare node-level sequencing, and full
// occupancy reproduces the paper's ~15-minute on/off disruption exactly.
func TestCheckpointRestoreEdgeCases(t *testing.T) {
	cases := []struct {
		name               string
		prof               Profile
		vms                int
		wantSave, wantBoot time.Duration
	}{
		{"xeon empty", Xeon(), 0, 3 * time.Minute, 4 * time.Minute},
		{"xeon one VM", Xeon(), 1, 5 * time.Minute, 6 * time.Minute},
		{"xeon full", Xeon(), 2, 7 * time.Minute, 8 * time.Minute},
		{"i7 empty", CoreI7(), 0, time.Minute, time.Minute},
		{"i7 full", CoreI7(), 2, 2 * time.Minute, 3 * time.Minute},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.prof.CheckpointFor(c.vms); got != c.wantSave {
				t.Errorf("CheckpointFor(%d) = %v, want %v", c.vms, got, c.wantSave)
			}
			if got := c.prof.RestoreFor(c.vms); got != c.wantBoot {
				t.Errorf("RestoreFor(%d) = %v, want %v", c.vms, got, c.wantBoot)
			}
		})
	}
	// Full occupancy is the paper's ~15 min cycle, to the minute.
	p := Xeon()
	if total := p.CheckpointFor(p.VMSlots) + p.RestoreFor(p.VMSlots); total != 15*time.Minute {
		t.Errorf("full-occupancy cycle = %v, want exactly 15m", total)
	}
}

// TestCrashLosesUncheckpointedState pins the crash-vs-checkpoint contrast
// the survivability layer is built on.
func TestCrashLosesUncheckpointedState(t *testing.T) {
	// A node caught On loses all its running VMs.
	n := NewNode(Xeon())
	n.SetActiveVMs(2)
	n.PowerOn()
	n.Step(n.Profile().RestoreFor(2))
	if !n.Running() {
		t.Fatal("node should be on")
	}
	n.Crash()
	if n.State() != Off || n.Power() != 0 {
		t.Fatalf("crashed node state %v, power %v", n.State(), n.Power())
	}
	if n.VMsLost() != 2 || n.VMsSaved() != 0 {
		t.Errorf("lost %d saved %d, want 2/0", n.VMsLost(), n.VMsSaved())
	}

	// A node caught mid-checkpoint loses the images it was still saving.
	n = NewNode(Xeon())
	n.SetActiveVMs(2)
	n.PowerOn()
	n.Step(n.Profile().RestoreFor(2))
	n.PowerOff()
	n.SetActiveVMs(0) // the allocator zeroes the count; the latch must hold
	n.Step(time.Minute)
	n.Crash()
	if n.VMsLost() != 2 {
		t.Errorf("mid-checkpoint crash lost %d VMs, want 2", n.VMsLost())
	}

	// A completed checkpoint is safe: crashing afterwards loses nothing.
	n = NewNode(Xeon())
	n.SetActiveVMs(1)
	n.PowerOn()
	n.Step(n.Profile().RestoreFor(1))
	n.PowerOff()
	n.Step(n.Profile().CheckpointFor(1))
	if n.VMsSaved() != 1 {
		t.Fatalf("saved %d VMs after completed checkpoint, want 1", n.VMsSaved())
	}
	n.Crash()
	if n.VMsLost() != 0 {
		t.Errorf("crash of an off node lost %d VMs", n.VMsLost())
	}

	// A node caught Restoring loses nothing: its images are still on disk.
	n = NewNode(Xeon())
	n.SetActiveVMs(2)
	n.PowerOn()
	n.Step(time.Minute)
	n.Crash()
	if n.VMsLost() != 0 {
		t.Errorf("crash during restore lost %d VMs; images persist", n.VMsLost())
	}
}

func TestClusterCrashVersusShutdown(t *testing.T) {
	boot := func() *Cluster {
		c := NewCluster(Xeon(), 2)
		c.SetTargetVMs(4)
		for i := 0; i < 10; i++ {
			c.Step(time.Minute)
		}
		return c
	}

	c := boot()
	if c.RunningVMs() != 4 {
		t.Fatalf("running VMs = %d, want 4", c.RunningVMs())
	}
	c.Crash()
	if c.VMsLost() != 4 || c.VMsSaved() != 0 {
		t.Errorf("crash lost %d saved %d, want 4/0", c.VMsLost(), c.VMsSaved())
	}
	if c.Power() != 0 || c.TargetVMs() != 0 {
		t.Error("crashed cluster should be dark with no target")
	}

	// The orderly path saves everything instead.
	c = boot()
	c.Shutdown()
	for i := 0; i < 10; i++ {
		c.Step(time.Minute)
	}
	if c.VMsSaved() != 4 || c.VMsLost() != 0 {
		t.Errorf("shutdown saved %d lost %d, want 4/0", c.VMsSaved(), c.VMsLost())
	}
}
