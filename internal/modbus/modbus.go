// Package modbus implements the subset of Modbus TCP used by the InSURE
// control plane (§4): the prototype's coordination node talks to the
// battery-array control panel over Modbus TCP, "a widely used communication
// protocol for industrial electronic devices due to robustness and
// simplicity".
//
// The implementation is written from scratch on the standard library's net
// package: MBAP framing, standard exception responses, and the four
// function codes over the two banks the panel moves (see plc.RegisterFile):
// 0x01 read coils, 0x04 read input registers, 0x05 write single coil and
// 0x0F write multiple coils. The server answers every other code with
// ExIllegalFunction.
package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Function codes.
const (
	FuncReadCoils               = 0x01
	FuncReadInput               = 0x04
	FuncWriteSingleCoil         = 0x05
	FuncWriteMultipleCoils      = 0x0F
	exceptionFlag          byte = 0x80
)

// Exception codes.
const (
	ExIllegalFunction = 0x01
	ExIllegalAddress  = 0x02
	ExIllegalValue    = 0x03
	ExServerFailure   = 0x04
)

// Protocol limits from the Modbus specification.
const (
	MaxCoilsPerRead  = 2000
	MaxCoilsPerWrite = 1968
	MaxRegsPerRead   = 125
	maxPDU           = 253
)

// Exception is a Modbus exception response.
type Exception byte

func (e Exception) Error() string {
	switch byte(e) {
	case ExIllegalFunction:
		return "modbus: illegal function"
	case ExIllegalAddress:
		return "modbus: illegal data address"
	case ExIllegalValue:
		return "modbus: illegal data value"
	case ExServerFailure:
		return "modbus: server device failure"
	default:
		return fmt.Sprintf("modbus: exception 0x%02x", byte(e))
	}
}

// ADU is a Modbus TCP application data unit: MBAP header plus PDU.
type ADU struct {
	Transaction uint16
	UnitID      byte
	PDU         []byte // function code followed by data
}

var errShortFrame = errors.New("modbus: short frame")

// WriteADU encodes and writes one ADU to w.
func WriteADU(w io.Writer, a ADU) error {
	if len(a.PDU) == 0 || len(a.PDU) > maxPDU {
		return fmt.Errorf("modbus: pdu length %d out of range", len(a.PDU))
	}
	buf := make([]byte, 7+len(a.PDU))
	binary.BigEndian.PutUint16(buf[0:], a.Transaction)
	binary.BigEndian.PutUint16(buf[2:], 0) // protocol id
	binary.BigEndian.PutUint16(buf[4:], uint16(1+len(a.PDU)))
	buf[6] = a.UnitID
	copy(buf[7:], a.PDU)
	_, err := w.Write(buf)
	return err
}

// ReadADU reads one ADU from r.
func ReadADU(r io.Reader) (ADU, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return ADU{}, err
	}
	if proto := binary.BigEndian.Uint16(hdr[2:]); proto != 0 {
		return ADU{}, fmt.Errorf("modbus: unexpected protocol id %d", proto)
	}
	length := binary.BigEndian.Uint16(hdr[4:])
	if length < 2 || length > maxPDU+1 {
		return ADU{}, fmt.Errorf("modbus: bad frame length %d", length)
	}
	pdu := make([]byte, length-1)
	if _, err := io.ReadFull(r, pdu); err != nil {
		return ADU{}, err
	}
	return ADU{
		Transaction: binary.BigEndian.Uint16(hdr[0:]),
		UnitID:      hdr[6],
		PDU:         pdu,
	}, nil
}

// packBits packs bools little-endian-within-byte per the specification.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// unpackBits expands packed coil bytes into count bools.
func unpackBits(data []byte, count int) ([]bool, error) {
	if len(data)*8 < count {
		return nil, errShortFrame
	}
	out := make([]bool, count)
	for i := range out {
		out[i] = data[i/8]&(1<<uint(i%8)) != 0
	}
	return out, nil
}

// packRegs encodes registers big-endian.
func packRegs(regs []uint16) []byte {
	out := make([]byte, 2*len(regs))
	for i, v := range regs {
		binary.BigEndian.PutUint16(out[2*i:], v)
	}
	return out
}

// unpackRegs decodes big-endian registers.
func unpackRegs(data []byte) ([]uint16, error) {
	if len(data)%2 != 0 {
		return nil, errShortFrame
	}
	out := make([]uint16, len(data)/2)
	for i := range out {
		out[i] = binary.BigEndian.Uint16(data[2*i:])
	}
	return out, nil
}
