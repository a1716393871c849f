// Package sensor models the real-time monitoring hardware of the InSURE
// prototype (§4): per-battery voltage and current transducers whose analog
// outputs are sampled by PLC analog-input modules.
//
// Quantisation and range limits matter: the paper's threshold-based control
// (voltage cutoffs, discharge-current caps) acts on transduced readings, not
// ground truth, so we reproduce the measurement chain — a CR Magnetics
// CR5310 voltage transducer (0–50 V in, ±5 V out), an HCS 20-10 current
// transducer (±10 A in, ±4 V out), and a 12-bit analog input module.
package sensor

import (
	"fmt"

	"insure/internal/units"
)

// Transducer converts a physical quantity into an analog signal voltage and
// back. Readings outside the input range saturate, as real hardware does.
type Transducer struct {
	name string
	// InLo..InHi is the measurable input range (in the quantity's unit).
	InLo, InHi float64
	// OutLo..OutHi is the analog output swing in volts.
	OutLo, OutHi float64
}

// VoltageTransducer models the CR5310 (0–50 V DC in, ±5 V out).
func VoltageTransducer(name string) *Transducer {
	return &Transducer{name: name, InLo: 0, InHi: 50, OutLo: -5, OutHi: 5}
}

// CurrentTransducer models the HCS 20-10-AP-CL (±10 A in, ±4 V out).
func CurrentTransducer(name string) *Transducer {
	return &Transducer{name: name, InLo: -10, InHi: 10, OutLo: -4, OutHi: 4}
}

// Name returns the transducer's identifier.
func (t *Transducer) Name() string { return t.name }

// Analog converts the physical input into the analog output voltage,
// saturating at the range limits.
func (t *Transducer) Analog(in float64) float64 {
	in = units.Clamp(in, t.InLo, t.InHi)
	frac := (in - t.InLo) / (t.InHi - t.InLo)
	return t.OutLo + frac*(t.OutHi-t.OutLo)
}

// Physical inverts Analog: analog signal voltage back to the physical unit.
func (t *Transducer) Physical(analog float64) float64 {
	analog = units.Clamp(analog, t.OutLo, t.OutHi)
	frac := (analog - t.OutLo) / (t.OutHi - t.OutLo)
	return t.InLo + frac*(t.InHi-t.InLo)
}

// ADC models one channel of the PLC analog-input extension module
// (S7-200 6ES7-231: 12-bit conversion over the signal range).
type ADC struct {
	Bits       int
	SigLo, Sig float64 // signal range low/high in volts
}

// NewADC returns a 12-bit channel spanning the given signal range.
func NewADC(lo, hi float64) *ADC { return &ADC{Bits: 12, SigLo: lo, Sig: hi} }

// Levels is the number of quantisation steps.
func (a *ADC) Levels() int { return 1 << a.Bits }

// Convert quantises an analog voltage to a raw register code.
func (a *ADC) Convert(v float64) uint16 {
	v = units.Clamp(v, a.SigLo, a.Sig)
	frac := (v - a.SigLo) / (a.Sig - a.SigLo)
	code := int(frac*float64(a.Levels()-1) + 0.5)
	return uint16(code)
}

// Voltage reconstructs the analog voltage from a register code.
func (a *ADC) Voltage(code uint16) float64 {
	frac := float64(code) / float64(a.Levels()-1)
	return a.SigLo + frac*(a.Sig-a.SigLo)
}

// Channel is a complete measurement chain: transducer → ADC → register.
// T and A are fixed once the channel is in use: Value caches its decode.
type Channel struct {
	T   *Transducer
	A   *ADC
	raw uint16

	// dec is the physical reading decoded from register code decRaw, valid
	// once decOK is set. Controllers read a channel many times per sample,
	// so Value decodes again only when the register code has changed.
	dec    float64
	decRaw uint16
	decOK  bool

	// Fault state: a stuck channel freezes its last register code; drift
	// offsets the analog signal (in volts) before quantisation. Real
	// transducers fail exactly these two ways — a dead output stage holds
	// the last sampled level, a degraded one walks off calibration.
	stuck  bool
	driftV float64
}

// NewVoltageChannel builds the chain for one battery terminal voltage.
func NewVoltageChannel(name string) *Channel {
	t := VoltageTransducer(name)
	return &Channel{T: t, A: NewADC(t.OutLo, t.OutHi)}
}

// NewCurrentChannel builds the chain for one battery current.
func NewCurrentChannel(name string) *Channel {
	t := CurrentTransducer(name)
	return &Channel{T: t, A: NewADC(t.OutLo, t.OutHi)}
}

// Sample measures the physical value and stores the register code. A stuck
// channel keeps its frozen code; a drifting one quantises the offset signal.
func (c *Channel) Sample(physical float64) {
	if c.stuck {
		return
	}
	c.raw = c.A.Convert(c.T.Analog(physical) + c.driftV)
}

// InjectStick freezes the channel at its current register code.
func (c *Channel) InjectStick() { c.stuck = true }

// InjectDrift adds a calibration drift of dv volts to the analog signal.
func (c *Channel) InjectDrift(dv float64) { c.driftV += dv }

// ClearFaults repairs the channel.
func (c *Channel) ClearFaults() { c.stuck = false; c.driftV = 0 }

// Faulted reports whether a fault is injected.
func (c *Channel) Faulted() bool { return c.stuck || c.driftV != 0 }

// Raw returns the last register code, as the PLC stores it.
func (c *Channel) Raw() uint16 { return c.raw }

// Value reconstructs the physical measurement from the stored code. It
// writes the channel's decode cache, so concurrent readers need the same
// serialization as Sample and SetRaw.
func (c *Channel) Value() float64 {
	if !c.decOK || c.decRaw != c.raw {
		c.dec, c.decRaw, c.decOK = c.T.Physical(c.A.Voltage(c.raw)), c.raw, true
	}
	return c.dec
}

// SetRaw installs a register code directly (used when readings arrive over
// the fieldbus rather than from a local sample).
func (c *Channel) SetRaw(code uint16) { c.raw = code }

// BatteryProbe is the per-unit instrumentation: one voltage and one current
// channel, as wired in the prototype.
type BatteryProbe struct {
	Volt    *Channel
	Current *Channel
}

// NewBatteryProbe instruments battery unit i.
func NewBatteryProbe(i int) *BatteryProbe {
	return &BatteryProbe{
		Volt:    NewVoltageChannel(fmt.Sprintf("bat%d-V", i)),
		Current: NewCurrentChannel(fmt.Sprintf("bat%d-I", i)),
	}
}

// Sample measures the unit's terminal voltage and signed current
// (+discharge, −charge).
func (p *BatteryProbe) Sample(v units.Volt, i units.Amp) {
	p.Volt.Sample(float64(v))
	p.Current.Sample(float64(i))
}

// Readings returns the transduced measurements.
func (p *BatteryProbe) Readings() (units.Volt, units.Amp) {
	return units.Volt(p.Volt.Value()), units.Amp(p.Current.Value())
}
