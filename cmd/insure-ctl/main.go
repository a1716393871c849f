// Command insure-ctl is a Modbus TCP client for the battery control panel
// served by insure-plcd (or the real prototype's Weintek panel). It reads
// per-unit telemetry and drives the charge/discharge relays.
//
// Usage:
//
//	insure-ctl -addr 127.0.0.1:1502 status           # per-unit telemetry
//	insure-ctl -addr 127.0.0.1:1502 charge 2         # battery #2 -> charge bus
//	insure-ctl -addr 127.0.0.1:1502 discharge 2      # battery #2 -> load bus
//	insure-ctl -addr 127.0.0.1:1502 open 2           # battery #2 -> open
//	insure-ctl -addr 127.0.0.1:1502 coils            # raw coil states
//
// Batteries are numbered 1..-units, as status and coils print them.
// -units (default 6, at most plc.MaxUnits = 48) must match the panel: the
// panel does not report its size. The input registers up to 95 exist on
// every panel and read 0 where no unit is, so status cannot tell a 6-unit
// panel from a 20-unit one and shows each unit past the panel's as
// "0.00 V -10.00 A charging". The panel has exactly two coils per unit, so
// coils, charge, discharge and open past its size fail with "illegal data
// address".
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"

	"insure/internal/modbus"
	"insure/internal/plc"
	"insure/internal/sensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insure-ctl: ")
	addr := flag.String("addr", "127.0.0.1:1502", "control panel address")
	units := flag.Int("units", 6, fmt.Sprintf("battery units on the panel, 1..%d; the panel does not report its size", plc.MaxUnits))
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"status"}
	}
	if err := checkUnits(*units); err != nil {
		log.Fatal(err)
	}
	unit := 0
	switch args[0] {
	case "status", "coils":
	case "charge", "discharge", "open":
		if len(args) < 2 {
			log.Fatalf("%s needs a battery number, 1..%d", args[0], *units)
		}
		var err error
		if unit, err = parseBattery(args[1], *units); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown command %q (want status, coils, charge, discharge, open)", args[0])
	}

	c, err := modbus.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	switch args[0] {
	case "status":
		status(c, *units)
	case "coils":
		coils(c, *units)
	default:
		setMode(c, unit, args[0])
	}
}

// checkUnits rejects a -units value outside the 1..plc.MaxUnits units the
// register map addresses.
func checkUnits(n int) error {
	if n < 1 || n > plc.MaxUnits {
		return fmt.Errorf("-units %d outside 1..%d", n, plc.MaxUnits)
	}
	return nil
}

// parseBattery reads a battery number the way status and coils print it,
// 1..units, and returns the unit's 0-based index.
func parseBattery(arg string, units int) (int, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 || n > units {
		return 0, fmt.Errorf("battery %q outside 1..%d", arg, units)
	}
	return n - 1, nil
}

// status decodes the voltage/current input registers through the same
// transducer models the panel encodes with.
func status(c *modbus.Client, n int) {
	regs, err := c.ReadInput(0, uint16(2*n))
	if err != nil {
		log.Fatal(err)
	}
	sys, err := c.ReadInput(plc.InputSolarPower, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solar %d W, load %d W\n", sys[0], sys[1])
	for i := 0; i < n; i++ {
		probe := sensor.NewBatteryProbe(i)
		probe.Volt.SetRaw(regs[2*i])
		probe.Current.SetRaw(regs[2*i+1])
		v, cur := probe.Readings()
		state := "idle"
		switch {
		case cur > 0.2:
			state = "discharging"
		case cur < -0.2:
			state = "charging"
		}
		fmt.Printf("battery #%d: %6.2f V %6.2f A  %s\n", i+1, float64(v), float64(cur), state)
	}
}

func coils(c *modbus.Client, n int) {
	bits, err := c.ReadCoils(0, uint16(2*n))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("battery #%d: charge=%v discharge=%v\n", i+1, bits[2*i], bits[2*i+1])
	}
}

// setMode swings unit's relay pair (0-based) atomically with a multi-coil write,
// preserving the charge/discharge interlock.
func setMode(c *modbus.Client, unit int, mode string) {
	var pair []bool
	switch mode {
	case "charge":
		pair = []bool{true, false}
	case "discharge":
		pair = []bool{false, true}
	default:
		pair = []bool{false, false}
	}
	if err := c.WriteCoils(plc.CoilCharge(unit), pair); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("battery #%d -> %s\n", unit+1, mode)
}
