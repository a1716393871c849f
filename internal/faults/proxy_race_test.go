package faults

import (
	"sync"
	"testing"
	"time"

	"insure/internal/modbus"
	"insure/internal/plc"
)

// TestProxyConcurrentClientsUnderChaos hammers a FlakyProxy with several
// Modbus clients while another goroutine toggles delay and severs sessions.
// Run under -race (make race-faults) it proves the proxy's shared state —
// the connection set, the delay, the dropped counter — is safe while
// sessions are being created and destroyed concurrently. Individual
// requests may fail (the proxy is built to break them); the assertions are
// about safety and liveness, not success.
func TestProxyConcurrentClientsUnderChaos(t *testing.T) {
	regs := plc.NewRegisterFile(64, 16)
	srv := modbus.NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := NewFlakyProxy(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const (
		clients  = 6
		requests = 40
	)
	var clientWG, chaosWG sync.WaitGroup
	stop := make(chan struct{})

	// The chaos goroutine: flip the delay and sever everything, repeatedly,
	// while traffic is in flight.
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				p.SetDelay(time.Millisecond)
			case 1:
				p.SetDelay(0)
			case 2:
				p.DropAll()
				_ = p.Dropped()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for g := 0; g < clients; g++ {
		clientWG.Add(1)
		go func(g int) {
			defer clientWG.Done()
			c, err := modbus.Dial(p.Addr())
			if err != nil {
				return // proxy may be mid-drop; that's the point
			}
			defer c.Close()
			c.Timeout = 200 * time.Millisecond
			c.RetryBackoff = time.Millisecond
			for i := 0; i < requests; i++ {
				coil := uint16(g*8 + i%8)
				if err := c.WriteCoil(coil, i%2 == 0); err != nil {
					continue // chaos-induced failure: tolerated
				}
				_, _ = c.ReadCoils(coil, 1)
			}
		}(g)
	}

	// Liveness: the whole brawl must finish. A deadlock between pipe
	// teardown and DropAll would hang here, not fail an assertion.
	done := make(chan struct{})
	go func() {
		clientWG.Wait()
		close(stop)
		chaosWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("proxy chaos test wedged: likely deadlock in FlakyProxy")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("proxy close after chaos: %v", err)
	}
}
