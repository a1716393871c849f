package baseline

import (
	"reflect"
	"testing"

	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/trace"
)

// fieldbusDay runs one Table 6 day under the baseline, either in-process or
// with the control plane attached over a loopback Modbus TCP panel.
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
	res := sys.Run(New(DefaultConfig()))
	return res, sys.Recorder().Frames()
}

// TestFieldbusTransparent pins the baseline's remote control plane to the
// in-process one: identical Results and recorder frames on Table 6's sunny,
// cloudy and rainy days.
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
