package sim

import (
	"fmt"

	"insure/internal/modbus"
	"insure/internal/plc"
	"insure/internal/relay"
)

// AttachRemotePanel switches the system's control plane from in-process
// register access to the prototype's real path (§4): the PLC register file
// is served over Modbus TCP on loopback, and every manager actuation
// (SetUnitModes, SetUnitMode) and telemetry read (UnitReading) travels
// through a Modbus client connection. A control pass polls the panel the
// way a PLC master polls its slave: one block read of the unit codes and
// one block write of the relay coils. The returned function tears the
// panel down.
//
// This is how the deployment actually runs when the coordination node and
// the battery control panel are separate machines; tests use it to prove
// the manager works unchanged across the fieldbus.
func (s *System) AttachRemotePanel() (func() error, error) {
	addr, stopServer, err := s.ServePanel()
	if err != nil {
		return nil, err
	}
	cli, stopClient, err := s.ConnectRemote(addr)
	if err != nil {
		stopServer()
		return nil, err
	}
	_ = cli
	return func() error {
		err := stopClient()
		if e := stopServer(); err == nil {
			err = e
		}
		return err
	}, nil
}

// ServePanel exposes the PLC register file over Modbus TCP on loopback
// and returns the listen address plus a teardown function. It is half of
// AttachRemotePanel, split out so a harness can interpose something —
// e.g. a faults.FlakyProxy — between the panel and the manager's client
// connection.
func (s *System) ServePanel() (string, func() error, error) {
	if s.remoteServer != nil {
		return "", nil, fmt.Errorf("sim: panel already served")
	}
	srv := modbus.NewServer(s.PLC.Regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("sim: panel listen: %w", err)
	}
	s.remoteServer = srv
	return addr.String(), func() error {
		s.remoteServer = nil
		return srv.Close()
	}, nil
}

// ConnectRemote routes the control plane's actuations and telemetry reads
// through a Modbus client dialed at addr (normally ServePanel's address,
// or a proxy in front of it). The returned client is exposed so callers
// can tune its timeout/retry policy before the run.
func (s *System) ConnectRemote(addr string) (*modbus.Client, func() error, error) {
	if s.remote != nil {
		return nil, nil, fmt.Errorf("sim: remote panel already attached")
	}
	cli, err := modbus.Dial(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: panel dial: %w", err)
	}
	s.remote = cli
	s.imageFresh = false
	return cli, func() error {
		s.remote = nil
		return cli.Close()
	}, nil
}

// RemoteAttached reports whether the control plane runs over Modbus.
func (s *System) RemoteAttached() bool { return s.remote != nil }

// remoteSetUnitMode writes one relay pair atomically over the fieldbus.
func (s *System) remoteSetUnitMode(i int, m relay.Mode) error {
	pair := []bool{m == relay.Charging, m == relay.Discharging}
	return s.remote.WriteCoils(plc.CoilCharge(i), pair)
}

// pollImage makes the probes hold the panel's unit codes for the current
// PLC scan. The first reading of a control pass, or the first after a scan,
// fetches all 2n codes with one block read and installs them in the probes;
// later readings decode from them, since the input registers cannot change
// until the PLC samples again. The image is keyed on PLC.Scans rather than
// on the Sample hook, which harnesses wrap.
//
// A failed read costs the pass nothing further: the probes already hold the
// codes the scan published, so the rest of the pass reads them locally and
// sees the same values.
func (s *System) pollImage() {
	scans := s.PLC.Scans()
	if s.imageFresh && s.imageScan == scans {
		return
	}
	s.imageFresh, s.imageScan = true, scans
	codes, err := s.remote.ReadInput(plc.InputVoltBase, uint16(2*len(s.Probes)))
	if err != nil || len(codes) != 2*len(s.Probes) {
		return
	}
	for i, p := range s.Probes {
		p.Volt.SetRaw(codes[plc.InputVolt(i)])
		p.Current.SetRaw(codes[plc.InputCurrent(i)])
	}
	s.installs++
}
