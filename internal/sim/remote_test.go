package sim

import (
	"reflect"
	"testing"
	"time"

	"insure/internal/faults"
	"insure/internal/logbook"
	"insure/internal/relay"
	"insure/internal/trace"
	"insure/internal/units"
)

// readCounter counts the control plane's fieldbus block reads and their
// failures.
type readCounter struct {
	remoteClient
	reads, failed int
}

func (c *readCounter) ReadInput(addr, count uint16) ([]uint16, error) {
	c.reads++
	codes, err := c.remoteClient.ReadInput(addr, count)
	if err != nil {
		c.failed++
	}
	return codes, err
}

// pollManager reads every unit three times per pass, the way InSURE's
// per-unit loops and sort comparators do, records what it saw, and swings
// the whole bank between the buses with one block command.
type pollManager struct {
	seen  []units.Volt
	modes []relay.Mode
}

func (m *pollManager) Name() string          { return "poll" }
func (m *pollManager) Period() time.Duration { return 30 * time.Second }
func (m *pollManager) Control(s *System, now time.Duration) {
	for k := 0; k < 3; k++ {
		for i := 0; i < s.Bank.Size(); i++ {
			v, cur := s.UnitReading(i)
			m.seen = append(m.seen, v, units.Volt(cur))
		}
	}
	if m.modes == nil {
		m.modes = make([]relay.Mode, s.Bank.Size())
	}
	for i := range m.modes {
		m.modes[i] = relay.Charging
		if (int(now/m.Period())+i)%2 == 0 {
			m.modes[i] = relay.Discharging
		}
	}
	s.SetUnitModes(m.modes)
	s.PLC.ScanNow()
}

func fieldbusFallbacks(s *System) int {
	n := 0
	for _, e := range s.Log.Filter(logbook.Emergency) {
		if e.Subject == "fieldbus" {
			n++
		}
	}
	return n
}

// TestFieldbusPartitionOneReadPerPass cuts the fieldbus behind a FlakyProxy
// for a stretch of control passes. Each partitioned pass must cost one
// failed block read, however many readings it takes, plus one failed block
// write with one logbook entry, and must see and command exactly what an
// in-process twin does. Once the partition heals the client redials and the
// reads succeed again.
func TestFieldbusPartitionOneReadPerPass(t *testing.T) {
	sys := newTestSystem(t, trace.FullSystemHigh())
	addr, stopServer, err := sys.ServePanel()
	if err != nil {
		t.Fatal(err)
	}
	defer stopServer()
	proxy, err := faults.NewFlakyProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cli, stopClient, err := sys.ConnectRemote(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stopClient()
	cli.Timeout = 250 * time.Millisecond
	cli.MaxRetries = 1
	cli.RetryBackoff = time.Millisecond
	counter := &readCounter{remoteClient: sys.remote}
	sys.remote = counter

	twin := newTestSystem(t, trace.FullSystemHigh())
	mgr, twinMgr := &pollManager{}, &pollManager{}
	tod := 10 * time.Hour
	run := func(passes int) {
		for end := tod + time.Duration(passes)*mgr.Period(); tod < end; tod += time.Second {
			sys.Tick(tod, mgr)
			twin.Tick(tod, twinMgr)
		}
	}
	check := func(stage string, reads, failed, fallbacks int) {
		t.Helper()
		if counter.reads != reads || counter.failed != failed {
			t.Errorf("%s: %d block reads, %d failed; want %d, %d", stage, counter.reads, counter.failed, reads, failed)
		}
		if got := fieldbusFallbacks(sys); got != fallbacks {
			t.Errorf("%s: %d fieldbus fallbacks logged, want %d", stage, got, fallbacks)
		}
		if got, want := cli.Transactions(), int64(2*reads); got != want {
			t.Errorf("%s: %d Modbus transactions, want %d (one read and one write per pass)", stage, got, want)
		}
	}

	const healthy, cut = 2, 5
	run(healthy)
	check("healthy", healthy, 0, 0)
	proxy.SetPartition(true)
	run(cut)
	check("partitioned", healthy+cut, cut, cut)
	proxy.SetPartition(false)
	run(healthy)
	check("healed", 2*healthy+cut, cut, cut)
	if cli.Reconnects() == 0 {
		t.Error("client never redialled after the partition healed")
	}

	if !reflect.DeepEqual(mgr.seen, twinMgr.seen) {
		t.Error("readings over the fieldbus differ from the in-process twin's")
	}
	for i := 0; i < sys.Bank.Size(); i++ {
		if got, want := sys.Fabric.Pair(i).Mode(), twin.Fabric.Pair(i).Mode(); got != want {
			t.Errorf("unit %d in mode %v, twin in %v", i, got, want)
		}
	}
}
