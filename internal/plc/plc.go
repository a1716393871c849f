// Package plc models the programmable logic controller at the heart of the
// InSURE battery control plane (§4): a Siemens S7-200 CPU224 with analog
// input extension modules.
//
// The PLC exposes the standard fieldbus data model — coils, discrete
// inputs, holding registers, and input registers — and runs a scan cycle:
// sample inputs, execute the control program, drive outputs. The energy
// manager talks to this register file (locally or over Modbus TCP, see
// insure/internal/modbus) exactly as the prototype's coordination node does.
// Panel (panel.go) wires the controller to the bank, relays and transducers
// it serves.
package plc

import (
	"errors"
	"sync"
	"time"

	"insure/internal/units"
)

// Register-map layout for the InSURE battery controller. All addresses are
// zero-based.
const (
	// Coils: two per battery unit (charge relay, discharge relay), then the
	// topology switches.
	CoilChargeBase    = 0  // coil 2i   = unit i charge relay
	CoilDischargeBase = 1  // coil 2i+1 = unit i discharge relay
	CoilP1            = 96 // topology: parallel high side
	CoilP2            = 97 // topology: series link
	CoilP3            = 98 // topology: parallel low side

	// Input registers: two per unit (voltage code, current code), then
	// system-level readings.
	InputVoltBase    = 0 // reg 2i   = unit i voltage ADC code
	InputCurrentBase = 1 // reg 2i+1 = unit i current ADC code
	InputSolarPower  = 96
	InputLoadPower   = 97

	// Holding registers: controller setpoints written by the coordinator.
	HoldDischargeCapA10 = 0 // discharge current cap, tenths of an amp
	HoldTargetSoCPct    = 1 // charge-to SoC target, percent
	HoldControlPeriodS  = 2 // control period, seconds
)

// scanInterval is the controller's cycle time: the S7-200 scans in
// single-digit milliseconds.
const scanInterval = 10 * time.Millisecond

// MaxUnits is the largest bank the register map addresses: unit 48's codes
// and coils would land on InputSolarPower and CoilP1. It also keeps a whole
// bank's 2n unit codes within one Modbus block read (125 registers) and its
// 2n relay coils within one block write.
const MaxUnits = 48

// CoilCharge returns the coil address of unit i's charge relay.
func CoilCharge(i int) uint16 { return uint16(2*i + CoilChargeBase) }

// CoilDischarge returns the coil address of unit i's discharge relay.
func CoilDischarge(i int) uint16 { return uint16(2*i + CoilDischargeBase) }

// InputVolt returns the input-register address of unit i's voltage code.
func InputVolt(i int) uint16 { return uint16(2*i + InputVoltBase) }

// InputCurrent returns the input-register address of unit i's current code.
func InputCurrent(i int) uint16 { return uint16(2*i + InputCurrentBase) }

// PowerCode is the input-register code for a power reading: whole watts,
// clamped to the register's [0, 65535] range (a bare float-to-uint16
// conversion of an out-of-range value is implementation-defined in Go).
func PowerCode(w units.Watt) uint16 { return uint16(units.Clamp(float64(w), 0, 65535)) }

// ErrAddress is returned for out-of-range register accesses, matching the
// Modbus "illegal data address" exception semantics.
var ErrAddress = errors.New("plc: illegal data address")

// RegisterFile is the PLC's process image: the four standard register
// banks. It is safe for concurrent access — the scan cycle and the fieldbus
// server touch it from different goroutines.
//
// Every call takes the lock once, so a block call is atomic: the scan cycle
// publishes its whole input image with SetInputs and reads its coil image
// with CoilsInto, one lock per hook per pass, and a fieldbus client's block
// read sees each block of a scan as a whole — never half of one pass and
// half of the next. A coordinator's relay command lands the same way, with
// SetCoils. The lock is a plain mutex: every call holds it for one short
// block copy (a Modbus read is at most 125 registers), so shared reads gain
// nothing, while a reader-writer lock costs two more atomic operations on
// every write.
type RegisterFile struct {
	mu       sync.Mutex
	coils    []bool
	discrete []bool
	holding  []uint16
	input    []uint16
}

// NewRegisterFile allocates banks of the given sizes.
func NewRegisterFile(coils, discrete, holding, input int) *RegisterFile {
	return &RegisterFile{
		coils:    make([]bool, coils),
		discrete: make([]bool, discrete),
		holding:  make([]uint16, holding),
		input:    make([]uint16, input),
	}
}

// CoilsInto copies len(dst) coil states starting at addr into dst without
// allocating. The scan cycle's actuation pass reads its whole relay image
// this way, under one lock.
func (r *RegisterFile) CoilsInto(dst []bool, addr uint16) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+len(dst) > len(r.coils) {
		return ErrAddress
	}
	copy(dst, r.coils[addr:])
	return nil
}

// ReadCoils returns count coil states starting at addr.
func (r *RegisterFile) ReadCoils(addr, count uint16) ([]bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+int(count) > len(r.coils) {
		return nil, ErrAddress
	}
	out := make([]bool, count)
	copy(out, r.coils[addr:int(addr)+int(count)])
	return out, nil
}

// SetCoils stores len(vals) coil states starting at addr under one lock, so
// a scan's CoilsInto sees all of them or none: a relay pair swung from
// discharge to charge is never seen with both coils closed. Nothing is
// written when the block does not fit.
func (r *RegisterFile) SetCoils(addr uint16, vals []bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+len(vals) > len(r.coils) {
		return ErrAddress
	}
	copy(r.coils[addr:], vals)
	return nil
}

// WriteCoil sets a single coil.
func (r *RegisterFile) WriteCoil(addr uint16, v bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr) >= len(r.coils) {
		return ErrAddress
	}
	r.coils[addr] = v
	return nil
}

// ReadDiscrete returns count discrete-input states starting at addr.
func (r *RegisterFile) ReadDiscrete(addr, count uint16) ([]bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+int(count) > len(r.discrete) {
		return nil, ErrAddress
	}
	out := make([]bool, count)
	copy(out, r.discrete[addr:int(addr)+int(count)])
	return out, nil
}

// SetDiscrete sets a discrete input (driven by the scan cycle, not clients).
func (r *RegisterFile) SetDiscrete(addr uint16, v bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr) >= len(r.discrete) {
		return ErrAddress
	}
	r.discrete[addr] = v
	return nil
}

// ReadHolding returns count holding registers starting at addr.
func (r *RegisterFile) ReadHolding(addr, count uint16) ([]uint16, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+int(count) > len(r.holding) {
		return nil, ErrAddress
	}
	out := make([]uint16, count)
	copy(out, r.holding[addr:int(addr)+int(count)])
	return out, nil
}

// WriteHolding sets count holding registers starting at addr.
func (r *RegisterFile) WriteHolding(addr uint16, vals []uint16) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+len(vals) > len(r.holding) {
		return ErrAddress
	}
	copy(r.holding[addr:], vals)
	return nil
}

// ReadInput returns count input registers starting at addr.
func (r *RegisterFile) ReadInput(addr, count uint16) ([]uint16, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+int(count) > len(r.input) {
		return nil, ErrAddress
	}
	out := make([]uint16, count)
	copy(out, r.input[addr:int(addr)+int(count)])
	return out, nil
}

// SetInputs stores len(vals) input-register codes starting at addr under
// one lock (driven by the analog modules). Nothing is written when the
// block does not fit.
func (r *RegisterFile) SetInputs(addr uint16, vals []uint16) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr)+len(vals) > len(r.input) {
		return ErrAddress
	}
	copy(r.input[addr:], vals)
	return nil
}

// PLC is the controller: a register file plus the I/O bindings executed on
// each scan. Sample reads the plant into input registers; Actuate pushes
// coil states out to the relay fabric.
type PLC struct {
	Regs *RegisterFile

	// Sample reads plant sensors into the register file.
	Sample func(*RegisterFile)
	// Actuate drives plant actuators from the register file.
	Actuate func(*RegisterFile)

	// OnScan, when set, is called after every completed scan cycle with the
	// wall-clock duration the cycle took. The duration is only measured when
	// the hook is installed, so an uninstrumented controller pays nothing.
	OnScan func(elapsed time.Duration)

	scans    int64
	lastScan time.Duration
	accum    time.Duration
}

// New builds a PLC sized for n battery units.
func New(n int) *PLC {
	return &PLC{Regs: NewRegisterFile(2*n+8+96, 2*n, 16, 2*n+8+96)}
}

// Scans returns the number of completed scan cycles.
func (p *PLC) Scans() int64 { return p.scans }

// Tick advances simulated time and runs one scan cycle once at least a
// scan interval has elapsed. Simulation ticks (1 s) are much longer than
// scan cycles, but one full refresh per simulation tick is enough fidelity:
// real intra-tick rescans would observe an unchanged plant.
func (p *PLC) Tick(dt time.Duration) {
	p.accum += dt
	if p.accum >= scanInterval {
		p.accum %= scanInterval
		p.scan()
	}
}

// ScanNow forces an immediate scan cycle regardless of elapsed time.
func (p *PLC) ScanNow() { p.scan() }

func (p *PLC) scan() {
	var start time.Time
	if p.OnScan != nil {
		start = time.Now()
	}
	if p.Sample != nil {
		p.Sample(p.Regs)
	}
	if p.Actuate != nil {
		p.Actuate(p.Regs)
	}
	p.scans++
	if p.OnScan != nil {
		p.OnScan(time.Since(start))
	}
}
