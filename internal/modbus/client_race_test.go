package modbus

import (
	"net"
	"sync"
	"testing"
	"time"

	"insure/internal/plc"
)

// TestCounterReadsRaceWithRetries hammers client round trips against a
// flapping panel while other goroutines continuously read the fault
// counters — exactly what a live /metrics scrape does. Run under -race
// (the Makefile's race-faults target covers this package) it proves the
// counters are safe to read at any moment, including mid-backoff while
// the request path holds the connection mutex.
func TestCounterReadsRaceWithRetries(t *testing.T) {
	regs := plc.NewRegisterFile(16, 4)
	srv := NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RetryBackoff = time.Millisecond

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Scrapers: read every counter as fast as possible.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.Retries() < 0 || c.Timeouts() < 0 || c.Reconnects() < 0 {
					t.Error("counter went negative")
					return
				}
			}
		}()
	}

	// The panel flaps while requests are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				srv.DropConnections()
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		// Errors are expected when a drop lands mid-exchange and the retry
		// budget runs out; the point is the counters stay consistent.
		_, _ = c.ReadInput(0, 4)
	}
	close(stop)
	wg.Wait()

	if c.Retries() == 0 && c.Reconnects() == 0 {
		t.Error("flapping server never advanced the retry/reconnect counters")
	}
}

// TestTimeoutCounterAdvances points the client at a listener that accepts
// and then stays silent, so every attempt dies on its I/O deadline.
func TestTimeoutCounterAdvances(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never answer
		}
	}()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 20 * time.Millisecond
	c.RetryBackoff = time.Millisecond
	c.MaxRetries = 2

	if _, err := c.ReadInput(0, 1); err == nil {
		t.Fatal("read succeeded against a silent server")
	}
	if got := c.Timeouts(); got != int64(c.MaxRetries)+1 {
		t.Errorf("timeouts = %d, want %d (initial attempt + retries)", got, c.MaxRetries+1)
	}
	if got := c.Retries(); got != int64(c.MaxRetries) {
		t.Errorf("retries = %d, want %d", got, c.MaxRetries)
	}
}
