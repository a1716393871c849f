package sensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransducerRoundTrip(t *testing.T) {
	vt := VoltageTransducer("v")
	for _, in := range []float64{0, 12.8, 25.6, 50} {
		out := vt.Physical(vt.Analog(in))
		if math.Abs(out-in) > 1e-9 {
			t.Errorf("round trip %v -> %v", in, out)
		}
	}
}

func TestTransducerSaturation(t *testing.T) {
	vt := VoltageTransducer("v")
	if got := vt.Physical(vt.Analog(80)); got != 50 {
		t.Errorf("over-range reading %v, want saturated 50", got)
	}
	ct := CurrentTransducer("i")
	if got := ct.Physical(ct.Analog(-25)); got != -10 {
		t.Errorf("under-range current %v, want -10", got)
	}
}

func TestCurrentTransducerBipolar(t *testing.T) {
	ct := CurrentTransducer("i")
	if got := ct.Analog(0); math.Abs(got) > 1e-9 {
		t.Errorf("zero current analog = %v, want 0", got)
	}
	if ct.Analog(10) != 4 || ct.Analog(-10) != -4 {
		t.Error("full-scale analog outputs wrong")
	}
}

func TestADCQuantisation(t *testing.T) {
	a := NewADC(-5, 5)
	if a.Levels() != 4096 {
		t.Fatalf("levels = %d, want 4096 (12-bit)", a.Levels())
	}
	if a.Convert(-5) != 0 {
		t.Error("low rail should map to code 0")
	}
	if int(a.Convert(5)) != a.Levels()-1 {
		t.Error("high rail should map to max code")
	}
	// Quantisation error bounded by half an LSB across the range.
	lsb := 10.0 / 4095
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := math.Mod(math.Abs(x), 10) - 5
		back := a.Voltage(a.Convert(v))
		return math.Abs(back-v) <= lsb/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChannelEndToEnd(t *testing.T) {
	c := NewVoltageChannel("bat0-V")
	c.Sample(12.85)
	got := c.Value()
	if math.Abs(got-12.85) > 0.02 {
		t.Errorf("channel read %v, want ~12.85 within quantisation", got)
	}
}

func TestChannelSetRaw(t *testing.T) {
	tx := NewVoltageChannel("a")
	tx.Sample(13.5)
	rx := NewVoltageChannel("b")
	rx.SetRaw(tx.Raw())
	if rx.Value() != tx.Value() {
		t.Error("register transfer changed the reading")
	}
}

func TestBatteryProbe(t *testing.T) {
	p := NewBatteryProbe(2)
	p.Sample(12.6, -7.5) // charging at 7.5 A
	v, i := p.Readings()
	if math.Abs(float64(v)-12.6) > 0.02 {
		t.Errorf("voltage reading %v", v)
	}
	if math.Abs(float64(i)+7.5) > 0.01 {
		t.Errorf("current reading %v, want ~-7.5", i)
	}
}

func TestChannelStickFreezesReading(t *testing.T) {
	c := NewCurrentChannel("bat0-I")
	c.Sample(4.0)
	frozen := c.Raw()
	c.InjectStick()
	if !c.Faulted() {
		t.Fatal("stuck channel reports healthy")
	}
	c.Sample(8.0)
	c.Sample(-2.0)
	if c.Raw() != frozen {
		t.Errorf("stuck channel moved: code %d -> %d", frozen, c.Raw())
	}
	c.ClearFaults()
	c.Sample(8.0)
	if c.Raw() == frozen {
		t.Error("repaired channel still frozen")
	}
}

func TestChannelDriftOffsetsReading(t *testing.T) {
	c := NewVoltageChannel("bat0-V")
	c.Sample(12.8)
	clean := c.Value()
	c.InjectDrift(0.5) // +0.5 V on the ±5 V signal = +2.5 V on the 0–50 V input
	c.Sample(12.8)
	if got := c.Value() - clean; math.Abs(got-2.5) > 0.05 {
		t.Errorf("0.5 V analog drift shifted reading by %.2f V, want ~2.5", got)
	}
	c.InjectDrift(0.5) // drift accumulates
	c.Sample(12.8)
	if got := c.Value() - clean; math.Abs(got-5) > 0.05 {
		t.Errorf("accumulated drift shifted reading by %.2f V, want ~5", got)
	}
	c.ClearFaults()
	c.Sample(12.8)
	if c.Value() != clean {
		t.Error("ClearFaults did not restore calibration")
	}
}

func TestProbeCurrentSaturates(t *testing.T) {
	p := NewBatteryProbe(0)
	p.Sample(12.0, 35) // far above the ±10 A transducer range
	_, i := p.Readings()
	if float64(i) > 10.001 {
		t.Errorf("current reading %v should saturate at 10 A", i)
	}
}

// TestValueMatchesDecode checks the decode cache: across random sequences
// of samples, register writes and fault injections, Value always equals a
// fresh decode of the stored register code, bit for bit. Reads are skipped
// at random, so the cache also meets codes that changed more than once
// since it was filled.
func TestValueMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []*Channel{NewVoltageChannel("v"), NewCurrentChannel("i")} {
		span := c.T.InHi - c.T.InLo
		for op := 0; op < 20000; op++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				c.Sample(c.T.InLo - 0.1*span + 1.2*span*rng.Float64())
			case 3:
				c.SetRaw(uint16(rng.Intn(c.A.Levels())))
			case 4:
				c.SetRaw(c.Raw())
			case 5:
				c.InjectStick()
			case 6:
				c.InjectDrift(rng.NormFloat64() * 0.2)
			case 7:
				c.ClearFaults()
			}
			if rng.Intn(3) == 0 {
				continue
			}
			got, want := c.Value(), c.T.Physical(c.A.Voltage(c.Raw()))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s op %d: Value() = %v, decode of code %d = %v", c.T.Name(), op, got, c.Raw(), want)
			}
		}
	}
}
