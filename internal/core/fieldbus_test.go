package core

import (
	"reflect"
	"testing"
	"time"

	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// fieldbusDay runs one Table 6 day under the InSURE manager with the
// survival ladder, either in-process or with the control plane attached
// over a loopback Modbus TCP panel.
func fieldbusDay(t *testing.T, sky solar.Condition, remote bool) (sim.Result, []sim.Frame) {
	t.Helper()
	cfg := sim.DefaultConfig(trace.Table6Day(sky, 2015))
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	if remote {
		done, err := sys.AttachRemotePanel()
		if err != nil {
			t.Fatal(err)
		}
		defer done()
	}
	mc := DefaultConfig()
	mc.Survival = DefaultSurvivalConfig()
	res := sys.Run(New(mc, cfg.BatteryCount))
	return res, sys.Recorder().Frames()
}

// passCounter counts a manager's control passes.
type passCounter struct {
	sim.Manager
	passes int
}

func (p *passCounter) Control(sys *sim.System, now time.Duration) {
	p.passes++
	p.Manager.Control(sys, now)
}

// TestFieldbusTransactionsPerPass runs a cloudy day over the remote control
// plane and holds the InSURE manager to two Modbus transactions per control
// pass, however many readings its loops and sort comparators take: one
// block read of the unit codes and one block write of the relay coils.
func TestFieldbusTransactionsPerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full day over loopback Modbus")
	}
	cfg := sim.DefaultConfig(trace.Table6Day(solar.Cloudy, 2015))
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	addr, stopServer, err := sys.ServePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer stopServer()
	cli, stopClient, err := sys.ConnectRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopClient()
	mc := DefaultConfig()
	mc.Survival = DefaultSurvivalConfig()
	mgr := &passCounter{Manager: New(mc, cfg.BatteryCount)}
	sys.Run(mgr)
	if mgr.passes == 0 {
		t.Fatal("no control passes ran")
	}
	if got, limit := cli.Transactions(), int64(2*mgr.passes); got > limit {
		t.Errorf("%d Modbus transactions over %d control passes (%.1f per pass), want at most 2 per pass",
			got, mgr.passes, float64(got)/float64(mgr.passes))
	}
	if n := cli.Retries() + cli.Timeouts(); n != 0 {
		t.Errorf("%d retries and timeouts on a healthy loopback link", n)
	}
}

// TestFieldbusTransparent pins the remote control plane to the in-process
// one: the same manager over the same day must produce identical Results
// and recorder frames whether it reaches the PLC registers directly or
// across Modbus TCP. The fieldbus changes how the coordinator reaches the
// panel, never what it reads or commands.
func TestFieldbusTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("full days over loopback Modbus")
	}
	for _, sky := range []solar.Condition{solar.Sunny, solar.Cloudy, solar.Rainy} {
		t.Run(sky.String(), func(t *testing.T) {
			localRes, localFrames := fieldbusDay(t, sky, false)
			remoteRes, remoteFrames := fieldbusDay(t, sky, true)
			if !reflect.DeepEqual(remoteRes, localRes) {
				t.Errorf("results differ over the fieldbus:\nremote %+v\nlocal  %+v", remoteRes, localRes)
			}
			if !reflect.DeepEqual(remoteFrames, localFrames) {
				t.Errorf("recorder frames differ over the fieldbus (%d remote, %d local)",
					len(remoteFrames), len(localFrames))
			}
		})
	}
}
