package faults

import (
	"testing"
	"time"

	"insure/internal/modbus"
	"insure/internal/plc"
)

// proxyPair stands up server <- proxy <- client over loopback.
func proxyPair(t *testing.T) (*FlakyProxy, *modbus.Client) {
	t.Helper()
	regs := plc.NewRegisterFile(16, 16)
	srv := modbus.NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p, err := NewFlakyProxy(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := modbus.Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.RetryBackoff = time.Millisecond
	return p, c
}

func TestProxyTransparentForwarding(t *testing.T) {
	_, c := proxyPair(t)
	if err := c.WriteCoil(3, true); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadCoils(3, 1)
	if err != nil || !got[0] {
		t.Fatalf("read through proxy = %v, %v", got, err)
	}
}

func TestProxyDelayStillDelivers(t *testing.T) {
	p, c := proxyPair(t)
	p.SetDelay(5 * time.Millisecond)
	start := time.Now()
	if _, err := c.ReadCoils(0, 4); err != nil {
		t.Fatalf("delayed read failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("round trip took %v, expected at least one 5 ms delay", elapsed)
	}
}

func TestProxyDropForcesClientReconnect(t *testing.T) {
	p, c := proxyPair(t)
	if err := c.WriteCoil(1, true); err != nil {
		t.Fatal(err)
	}
	p.DropAll()
	if p.Dropped() == 0 {
		t.Error("drop counter did not advance")
	}
	got, err := c.ReadCoils(1, 1)
	if err != nil {
		t.Fatalf("read after drop failed despite retry: %v", err)
	}
	if !got[0] {
		t.Error("state lost across proxy drop")
	}
	if c.Reconnects() == 0 {
		t.Error("client did not reconnect through the proxy")
	}
}

func TestProxyPartitionSeversAndHeals(t *testing.T) {
	p, c := proxyPair(t)
	c.Timeout = 250 * time.Millisecond
	c.MaxRetries = 1
	if err := c.WriteCoil(2, true); err != nil {
		t.Fatal(err)
	}
	p.SetPartition(true)
	if !p.Partitioned() {
		t.Fatal("Partitioned() = false after SetPartition(true)")
	}
	if _, err := c.ReadCoils(2, 1); err == nil {
		t.Fatal("read succeeded across a partition")
	}
	p.SetPartition(false)
	got, err := c.ReadCoils(2, 1)
	if err != nil {
		t.Fatalf("read after heal failed: %v", err)
	}
	if !got[0] {
		t.Error("state lost across partition")
	}
}
