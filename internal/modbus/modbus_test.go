package modbus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"insure/internal/plc"
	"insure/internal/telemetry"
)

func TestADURoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := ADU{Transaction: 0xBEEF, UnitID: 3, PDU: []byte{0x03, 0x00, 0x01, 0x00, 0x02}}
	if err := WriteADU(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadADU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Transaction != in.Transaction || out.UnitID != in.UnitID || !bytes.Equal(out.PDU, in.PDU) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestADURejectsEmptyPDU(t *testing.T) {
	if err := WriteADU(&bytes.Buffer{}, ADU{}); err == nil {
		t.Error("empty PDU accepted")
	}
}

func TestADUBadProtocol(t *testing.T) {
	raw := []byte{0, 1, 0, 9, 0, 2, 1, 3}
	if _, err := ReadADU(bytes.NewReader(raw)); err == nil {
		t.Error("nonzero protocol id accepted")
	}
}

func TestBitPackingRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		if len(bits) == 0 {
			return true
		}
		got, err := unpackBits(packBits(bits), len(bits))
		if err != nil {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegPackingRoundTrip(t *testing.T) {
	f := func(regs []uint16) bool {
		got, err := unpackRegs(packRegs(regs))
		if err != nil {
			return false
		}
		if len(got) != len(regs) {
			return false
		}
		for i := range regs {
			if got[i] != regs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newPair spins up a server over loopback and returns a connected client.
func newPair(t *testing.T, regs *plc.RegisterFile) *Client {
	t.Helper()
	srv := NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientServerCoils(t *testing.T) {
	regs := plc.NewRegisterFile(32, 16)
	c := newPair(t, regs)

	if err := c.WriteCoil(5, true); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadCoils(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := i == 5
		if b != want {
			t.Errorf("coil %d = %v, want %v", i, b, want)
		}
	}
	// The write must have landed in the shared register file.
	direct, _ := regs.ReadCoils(5, 1)
	if !direct[0] {
		t.Error("write did not reach the register file")
	}
}

func TestClientServerInputAndDiscrete(t *testing.T) {
	regs := plc.NewRegisterFile(8, 8)
	_ = regs.SetInputs(3, []uint16{2222})
	_ = regs.WriteCoil(1, true)
	c := newPair(t, regs)

	in, err := c.ReadInput(3, 1)
	if err != nil || in[0] != 2222 {
		t.Errorf("input = %v, %v", in, err)
	}
	d, err := c.ReadCoils(0, 2)
	if err != nil || d[0] || !d[1] {
		t.Errorf("coils = %v, %v", d, err)
	}
}

func TestServerExceptions(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	c := newPair(t, regs)

	_, err := c.ReadCoils(100, 4)
	var ex Exception
	if !errors.As(err, &ex) || byte(ex) != ExIllegalAddress {
		t.Errorf("OOB coil read error = %v, want illegal address", err)
	}
	if err := c.WriteCoil(99, true); !errors.As(err, &ex) || byte(ex) != ExIllegalAddress {
		t.Errorf("OOB coil write error = %v", err)
	}
	if _, err := c.ReadInput(0, 0); err == nil {
		t.Error("zero-count read accepted")
	}
}

// TestServerIllegalFunction checks that the server answers every function
// code outside the four it serves with ExIllegalFunction: an unknown code,
// and the standard discrete-input and holding-register codes, each sent
// with a well-formed body that addresses register 0.
func TestServerIllegalFunction(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	resp := srv.handle([]byte{0x2B, 0x00})
	if len(resp) != 2 || resp[0] != 0x2B|exceptionFlag || resp[1] != ExIllegalFunction {
		t.Errorf("illegal function response = %v", resp)
	}
	for _, pdu := range [][]byte{
		{0x02, 0, 0, 0, 1},                            // read discrete inputs
		{0x03, 0, 0, 0, 1},                            // read holding registers
		{0x06, 0, 0, 0x12, 0x34},                      // write single register
		{0x10, 0, 0, 0, 1, 2, 0x12, 0x34},             // write multiple registers
		{0x17, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0x12, 0x34}, // read/write multiple registers
	} {
		resp := srv.handle(pdu)
		if len(resp) != 2 || resp[0] != pdu[0]|exceptionFlag || resp[1] != ExIllegalFunction {
			t.Errorf("function %#02x response = %v, want illegal function", pdu[0], resp)
		}
	}
	if resp := srv.handle(nil); len(resp) != 2 || resp[1] != ExIllegalFunction {
		t.Errorf("empty PDU response = %v", resp)
	}
}

func TestWriteCoilValueValidation(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	resp := srv.handle([]byte{FuncWriteSingleCoil, 0, 0, 0x12, 0x34})
	if resp[0] != FuncWriteSingleCoil|exceptionFlag || resp[1] != ExIllegalValue {
		t.Errorf("bad coil value response = %v", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	regs := plc.NewRegisterFile(64, 64)
	srv := NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if err := c.WriteCoil(uint16(g), i%2 == 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.ReadCoils(0, 8); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestExceptionStrings(t *testing.T) {
	for _, code := range []byte{ExIllegalFunction, ExIllegalAddress, ExIllegalValue, ExServerFailure, 0x7F} {
		if Exception(code).Error() == "" {
			t.Errorf("exception %#x has empty message", code)
		}
	}
}

func TestWriteMultipleCoils(t *testing.T) {
	regs := plc.NewRegisterFile(16, 0)
	c := newPair(t, regs)
	if err := c.WriteCoils(2, []bool{true, false, true, true}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadCoils(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("coil %d = %v, want %v", 2+i, got[i], want[i])
		}
	}
	// Out-of-range writes must not partially apply.
	if err := c.WriteCoils(14, []bool{true, true, true, true}); err == nil {
		t.Error("OOB multi-coil write accepted")
	}
	after, _ := c.ReadCoils(14, 2)
	if after[0] || after[1] {
		t.Error("partial write leaked after rejected transaction")
	}
	if err := c.WriteCoils(0, nil); err == nil {
		t.Error("empty coil write accepted")
	}
}

// TestWriteCoilsPairNeverTorn swings one relay pair between the discharge
// and charge buses with multi-coil writes while a reader takes the pair's
// coil image the way the PLC scan does. A request applied coil by coil
// exposes [true true] between its two stores: a double-closed command that
// the scan's interlock answers by opening the pair. Run it with -race.
func TestWriteCoilsPairNeverTorn(t *testing.T) {
	const swings = 3000
	regs := plc.NewRegisterFile(2, 0)
	c := newPair(t, regs)
	done := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pair := make([]bool, 2)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := regs.CoilsInto(pair, 0); err != nil {
				t.Error(err)
				return
			}
			if pair[0] && pair[1] {
				torn.Add(1)
			}
		}
	}()
	charge, discharge := []bool{true, false}, []bool{false, true}
	for k := 0; k < swings; k++ {
		vals := discharge
		if k%2 == 1 {
			vals = charge
		}
		if err := c.WriteCoils(plc.CoilChargeBase, vals); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("the scan saw the pair double-closed %d times in %d swings", n, swings)
	}
}

// TestClientCountsTransactions checks that every request counts once,
// including one the panel refuses.
func TestClientCountsTransactions(t *testing.T) {
	regs := plc.NewRegisterFile(8, 8)
	c := newPair(t, regs)
	if err := c.WriteCoils(0, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadInput(0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadInput(4, 8); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if got := c.Transactions(); got != 3 {
		t.Errorf("Transactions() = %d, want 3", got)
	}
	reg := telemetry.NewRegistry()
	c.RegisterTelemetry(reg)
	if v, ok := reg.Snapshot().Gauges["insure_modbus_client_transactions"]; !ok || v != 3 {
		t.Errorf("insure_modbus_client_transactions = %v (registered %v), want 3", v, ok)
	}
}

// logRecorder collects server diagnostics safely across goroutines.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func TestServerTruncatedFrameLogsProtocolError(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	rec := &logRecorder{}
	srv.Logf = rec.logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	// Half an MBAP header, then hang up: a frame truncated mid-read.
	if _, err := conn.Write([]byte{0x00, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, func() bool { return len(rec.all()) > 0 })
	srv.Close() // drains the handler before we inspect the log
	var sawProtocol bool
	for _, line := range rec.all() {
		if strings.Contains(line, "protocol") {
			sawProtocol = true
		}
	}
	if !sawProtocol {
		t.Errorf("truncated frame not logged as protocol error; log = %q", rec.all())
	}
}

func TestServerCleanCloseIsSilent(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	rec := &logRecorder{}
	srv.Logf = rec.logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCoil(0, true); err != nil {
		t.Fatal(err)
	}
	c.Close()   // orderly FIN: the server sees io.EOF
	srv.Close() // drains the handler
	if got := rec.all(); len(got) != 0 {
		t.Errorf("clean close produced diagnostics: %q", got)
	}
}

func TestServerOversizedReadCount(t *testing.T) {
	regs := plc.NewRegisterFile(64, 4)
	c := newPair(t, regs)
	var ex Exception
	if _, err := c.ReadCoils(0, MaxCoilsPerRead+1); !errors.As(err, &ex) || byte(ex) != ExIllegalValue {
		t.Errorf("oversized coil read error = %v, want illegal value", err)
	}
	if _, err := c.ReadInput(0, MaxRegsPerRead+1); !errors.As(err, &ex) || byte(ex) != ExIllegalValue {
		t.Errorf("oversized register read error = %v, want illegal value", err)
	}
}

func TestClientRecoversFromDroppedConnection(t *testing.T) {
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
	if err := c.WriteCoil(1, true); err != nil {
		t.Fatal(err)
	}
	// The panel flaps: every live session is severed, the listener stays up.
	srv.DropConnections()
	got, err := c.ReadCoils(0, 4)
	if err != nil {
		t.Fatalf("read after drop failed despite retry: %v", err)
	}
	if !got[1] {
		t.Error("register file state lost across reconnect")
	}
	if c.Retries() == 0 {
		t.Error("retry counter did not advance")
	}
	if c.Reconnects() == 0 {
		t.Error("reconnect counter did not advance")
	}
}

func TestClientDoesNotRetryExceptions(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	c := newPair(t, regs)
	c.RetryBackoff = time.Millisecond
	var ex Exception
	if _, err := c.ReadCoils(100, 1); !errors.As(err, &ex) {
		t.Fatalf("OOB read error = %v, want exception", err)
	}
	if got := c.Retries(); got != 0 {
		t.Errorf("exception response was retried %d times", got)
	}
}

func TestClientGivesUpWhenServerGone(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RetryBackoff = time.Millisecond
	srv.Close() // listener and sessions gone: redial cannot succeed
	if _, err := c.ReadCoils(0, 1); err == nil {
		t.Error("read succeeded against a dead server")
	}
	if got := c.Retries(); got != int64(c.MaxRetries) {
		t.Errorf("retries = %d, want the full budget %d", got, c.MaxRetries)
	}
}

func TestServeShutsDownOnContextCancel(t *testing.T) {
	regs := plc.NewRegisterFile(4, 4)
	srv := NewServer(regs)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0") }()
	time.Sleep(10 * time.Millisecond) // let it bind
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met within 2 s")
}

// TestServerReapsHalfOpenSessions proves a client that connects and then
// goes silent (a half-open/partitioned peer) cannot pin a session goroutine
// forever: the server reaps it after SessionTimeout and counts the reap.
func TestServerReapsHalfOpenSessions(t *testing.T) {
	regs := plc.NewRegisterFile(8, 8)
	srv := NewServer(regs)
	srv.SessionTimeout = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Raw TCP connection that never sends a single byte: exactly what a
	// partitioned peer looks like to the server.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionsReaped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.SessionsReaped(); got != 1 {
		t.Fatalf("SessionsReaped = %d, want 1", got)
	}

	// The reaped session's connection is closed from the server side.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected server to close the reaped connection")
	}

	// A live client on the same server is unaffected by the reaping and
	// can keep a session open past the idle timeout by staying active.
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if err := c.WriteCoil(1, i%2 == 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.SessionsReaped(); got != 1 {
		t.Fatalf("active session was reaped: SessionsReaped = %d", got)
	}
}

// TestServerReapedCounterTelemetry wires the server counter into a registry
// and checks the documented instrument name is present.
func TestServerReapedCounterTelemetry(t *testing.T) {
	regs := plc.NewRegisterFile(8, 8)
	srv := NewServer(regs)
	reg := telemetry.NewRegistry()
	srv.RegisterTelemetry(reg)
	snap := reg.Snapshot()
	v, ok := snap.Gauges["modbus_server_sessions_reaped"]
	if !ok {
		t.Fatal("modbus_server_sessions_reaped not registered")
	}
	if v != 0 {
		t.Fatalf("fresh server reaped gauge = %v, want 0", v)
	}
}
