package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a Modbus TCP master: the coordination node's side of the link.
// It is safe for concurrent use; requests are serialised on the connection.
//
// Transport failures (timeouts, resets, a panel power-cycling mid-session)
// are retried with exponential backoff, redialling the panel between
// attempts. Exception responses are never retried: the panel answered, it
// just refused the request.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	addr string
	txn  uint16

	// The counters are atomics, not c.mu-guarded fields: c.mu is held
	// across the entire retry loop including its backoff sleeps, so a
	// mutex-guarded reader (a live /metrics scrape) would stall for whole
	// backoff windows — and, before this change, raced with the bare
	// increments under load. Atomic reads are wait-free and safe to call
	// from any goroutine at any time.
	transactions atomic.Int64
	retries      atomic.Int64
	timeouts     atomic.Int64
	reconnects   atomic.Int64

	// Timeout bounds each round trip (default 5 s).
	Timeout time.Duration
	// UnitID addresses the target device (the prototype uses one panel).
	UnitID byte
	// MaxRetries is how many times a failed round trip is retried before
	// the error is surfaced (default 3; 0 retries forever is not offered —
	// set it negative to disable retrying).
	MaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles on each
	// subsequent attempt (default 50 ms).
	RetryBackoff time.Duration
}

// Dial connects to a Modbus TCP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("modbus: dial %s: %w", addr, err)
	}
	return &Client{
		conn:         conn,
		addr:         addr,
		Timeout:      5 * time.Second,
		UnitID:       1,
		MaxRetries:   3,
		RetryBackoff: 50 * time.Millisecond,
	}, nil
}

// Close shuts the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Transactions returns how many requests the client has issued, each
// counted once however often it was retried and whether or not it
// succeeded. Safe to call concurrently with in-flight requests.
func (c *Client) Transactions() int64 { return c.transactions.Load() }

// Retries returns how many round trips were retried after a transport
// failure. Safe to call concurrently with in-flight requests; it never
// blocks on the connection mutex.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Timeouts returns how many attempts failed on an I/O deadline.
func (c *Client) Timeouts() int64 { return c.timeouts.Load() }

// Reconnects returns how many times the client redialled the panel.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// roundTrip sends a request PDU and returns the response PDU, retrying
// transport failures with exponential backoff.
func (c *Client) roundTrip(pdu []byte) ([]byte, error) {
	c.transactions.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.attempt(pdu)
	c.countTimeout(err)
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for try := 0; err != nil && try < c.MaxRetries; try++ {
		var ex Exception
		if errors.As(err, &ex) {
			break // the server answered; retrying would repeat the refusal
		}
		c.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		if dialErr := c.redial(); dialErr != nil {
			err = dialErr
			continue
		}
		resp, err = c.attempt(pdu)
		c.countTimeout(err)
	}
	return resp, err
}

// countTimeout tallies deadline-exceeded attempts (the transducer link's
// "panel went quiet" signal, distinct from resets and refusals).
func (c *Client) countTimeout(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.timeouts.Add(1)
	}
}

// redial replaces a (presumed broken) connection with a fresh one.
// Callers hold c.mu.
func (c *Client) redial() error {
	c.conn.Close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("modbus: redial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.reconnects.Add(1)
	return nil
}

// attempt performs one round trip on the current connection. Callers hold
// c.mu.
func (c *Client) attempt(pdu []byte) ([]byte, error) {
	c.txn++
	deadline := time.Now().Add(c.Timeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := WriteADU(c.conn, ADU{Transaction: c.txn, UnitID: c.UnitID, PDU: pdu}); err != nil {
		return nil, err
	}
	for {
		resp, err := ReadADU(c.conn)
		if err != nil {
			return nil, err
		}
		if resp.Transaction != c.txn {
			continue // stale response; keep draining
		}
		if len(resp.PDU) >= 2 && resp.PDU[0] == pdu[0]|exceptionFlag {
			return nil, Exception(resp.PDU[1])
		}
		if len(resp.PDU) == 0 || resp.PDU[0] != pdu[0] {
			return nil, fmt.Errorf("modbus: mismatched response function %#x", resp.PDU)
		}
		return resp.PDU, nil
	}
}

func readReq(fn byte, addr, count uint16) []byte {
	pdu := make([]byte, 5)
	pdu[0] = fn
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], count)
	return pdu
}

func (c *Client) readBits(fn byte, addr, count uint16) ([]bool, error) {
	resp, err := c.roundTrip(readReq(fn, addr, count))
	if err != nil {
		return nil, err
	}
	if len(resp) < 2 || len(resp) != 2+int(resp[1]) {
		return nil, errShortFrame
	}
	return unpackBits(resp[2:], int(count))
}

func (c *Client) readRegs(fn byte, addr, count uint16) ([]uint16, error) {
	resp, err := c.roundTrip(readReq(fn, addr, count))
	if err != nil {
		return nil, err
	}
	if len(resp) < 2 || len(resp) != 2+int(resp[1]) {
		return nil, errShortFrame
	}
	return unpackRegs(resp[2:])
}

// ReadCoils reads count coils starting at addr.
func (c *Client) ReadCoils(addr, count uint16) ([]bool, error) {
	return c.readBits(FuncReadCoils, addr, count)
}

// ReadDiscrete reads count discrete inputs starting at addr.
func (c *Client) ReadDiscrete(addr, count uint16) ([]bool, error) {
	return c.readBits(FuncReadDiscrete, addr, count)
}

// ReadHolding reads count holding registers starting at addr.
func (c *Client) ReadHolding(addr, count uint16) ([]uint16, error) {
	return c.readRegs(FuncReadHolding, addr, count)
}

// ReadInput reads count input registers starting at addr.
func (c *Client) ReadInput(addr, count uint16) ([]uint16, error) {
	return c.readRegs(FuncReadInput, addr, count)
}

// WriteCoil sets a single coil.
func (c *Client) WriteCoil(addr uint16, v bool) error {
	pdu := make([]byte, 5)
	pdu[0] = FuncWriteSingleCoil
	binary.BigEndian.PutUint16(pdu[1:], addr)
	if v {
		binary.BigEndian.PutUint16(pdu[3:], 0xFF00)
	}
	_, err := c.roundTrip(pdu)
	return err
}

// WriteRegister sets a single holding register.
func (c *Client) WriteRegister(addr, val uint16) error {
	pdu := make([]byte, 5)
	pdu[0] = FuncWriteSingleReg
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], val)
	_, err := c.roundTrip(pdu)
	return err
}

// WriteCoils sets multiple coils starting at addr in one transaction —
// how a coordinator swings a battery's charge/discharge relay pair
// atomically.
func (c *Client) WriteCoils(addr uint16, vals []bool) error {
	if len(vals) == 0 || len(vals) > MaxCoilsPerWrite {
		return fmt.Errorf("modbus: coil write count %d out of range", len(vals))
	}
	packed := packBits(vals)
	pdu := make([]byte, 6+len(packed))
	pdu[0] = FuncWriteMultipleCoils
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], uint16(len(vals)))
	pdu[5] = byte(len(packed))
	copy(pdu[6:], packed)
	_, err := c.roundTrip(pdu)
	return err
}

// ReadWriteRegisters writes wVals at wAddr and reads rCount registers from
// rAddr in a single transaction (the write happens first, per the spec).
func (c *Client) ReadWriteRegisters(rAddr, rCount, wAddr uint16, wVals []uint16) ([]uint16, error) {
	if rCount == 0 || rCount > MaxRegsPerRead {
		return nil, fmt.Errorf("modbus: read count %d out of range", rCount)
	}
	if len(wVals) == 0 || len(wVals) > MaxRegsPerWrite {
		return nil, fmt.Errorf("modbus: write count %d out of range", len(wVals))
	}
	packed := packRegs(wVals)
	pdu := make([]byte, 10+len(packed))
	pdu[0] = FuncReadWriteMultipleRegs
	binary.BigEndian.PutUint16(pdu[1:], rAddr)
	binary.BigEndian.PutUint16(pdu[3:], rCount)
	binary.BigEndian.PutUint16(pdu[5:], wAddr)
	binary.BigEndian.PutUint16(pdu[7:], uint16(len(wVals)))
	pdu[9] = byte(len(packed))
	copy(pdu[10:], packed)
	resp, err := c.roundTrip(pdu)
	if err != nil {
		return nil, err
	}
	if len(resp) < 2 || len(resp) != 2+int(resp[1]) {
		return nil, errShortFrame
	}
	return unpackRegs(resp[2:])
}

// WriteRegisters sets multiple holding registers starting at addr.
func (c *Client) WriteRegisters(addr uint16, vals []uint16) error {
	if len(vals) == 0 || len(vals) > MaxRegsPerWrite {
		return fmt.Errorf("modbus: write count %d out of range", len(vals))
	}
	packed := packRegs(vals)
	pdu := make([]byte, 6+len(packed))
	pdu[0] = FuncWriteMultipleRegs
	binary.BigEndian.PutUint16(pdu[1:], addr)
	binary.BigEndian.PutUint16(pdu[3:], uint16(len(vals)))
	pdu[5] = byte(len(packed))
	copy(pdu[6:], packed)
	_, err := c.roundTrip(pdu)
	return err
}
