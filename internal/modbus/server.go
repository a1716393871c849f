package modbus

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"insure/internal/plc"
)

// DefaultSessionTimeout bounds how long a session may sit idle before the
// server reaps it. A partitioned or half-open client (its TCP endpoint is
// gone but no FIN/RST ever arrived) would otherwise pin a handler
// goroutine — and its session slot — forever.
const DefaultSessionTimeout = 2 * time.Minute

// Server serves a PLC register file over Modbus TCP. It is the control
// panel of the prototype (§4): the bridge between the battery system's PLC
// and the coordination node.
type Server struct {
	regs *plc.RegisterFile

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup // in-flight connection handlers

	reaped atomic.Int64 // sessions dropped for idling past SessionTimeout

	// SessionTimeout is the per-session idle limit: if no request arrives
	// within it, the session is reaped. Zero disables reaping (sessions
	// may then outlive half-open peers indefinitely). Set before Listen.
	SessionTimeout time.Duration

	// Logf, when set, receives per-connection error diagnostics.
	Logf func(format string, args ...any)
}

// NewServer wraps the given register file.
func NewServer(regs *plc.RegisterFile) *Server {
	return &Server{
		regs:           regs,
		conns:          make(map[net.Conn]struct{}),
		SessionTimeout: DefaultSessionTimeout,
	}
}

// SessionsReaped reports how many sessions were dropped because the peer
// went silent past SessionTimeout.
func (s *Server) SessionsReaped() int64 { return s.reaped.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and serves until Close. It returns
// the bound address for clients to dial.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		if s.SessionTimeout > 0 {
			// Refresh the idle deadline per request: a healthy client can
			// hold a session open forever, a half-open one cannot.
			conn.SetReadDeadline(time.Now().Add(s.SessionTimeout))
		}
		req, err := ReadADU(conn)
		if err != nil {
			var nerr net.Error
			switch {
			case errors.As(err, &nerr) && nerr.Timeout():
				// Half-open or partitioned peer: reap the session so the
				// handler goroutine is reclaimed.
				s.reaped.Add(1)
				if s.Logf != nil {
					s.Logf("modbus server: session idle past %v, reaped", s.SessionTimeout)
				}
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				// Orderly disconnect (or our own Close); nothing to report.
			case errors.Is(err, io.ErrUnexpectedEOF):
				// The peer hung up mid-frame: a protocol error, not a
				// clean close — always worth a diagnostic.
				if s.Logf != nil {
					s.Logf("modbus server: protocol: truncated frame: %v", err)
				}
			default:
				if s.Logf != nil {
					s.Logf("modbus server: read: %v", err)
				}
			}
			return
		}
		resp := s.handle(req.PDU)
		if err := WriteADU(conn, ADU{Transaction: req.Transaction, UnitID: req.UnitID, PDU: resp}); err != nil {
			if s.Logf != nil {
				s.Logf("modbus server: write: %v", err)
			}
			return
		}
	}
}

// Close stops the listener, drops all connections and waits for their
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Wait outside the mutex: each handler's cleanup re-takes it.
	s.wg.Wait()
	return err
}

// DropConnections severs every live connection while keeping the listener
// open, so clients see a mid-session drop and must reconnect. It exists to
// exercise client recovery (and the fault injector's flaky-panel mode).
func (s *Server) DropConnections() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func exception(fn byte, code byte) []byte { return []byte{fn | exceptionFlag, code} }

// handle executes one request PDU against the register file.
func (s *Server) handle(pdu []byte) []byte {
	if len(pdu) == 0 {
		return exception(0, ExIllegalFunction)
	}
	fn := pdu[0]
	body := pdu[1:]
	switch fn {
	case FuncReadCoils:
		if len(body) != 4 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(body[0:])
		count := binary.BigEndian.Uint16(body[2:])
		if count == 0 || count > MaxCoilsPerRead {
			return exception(fn, ExIllegalValue)
		}
		bits, err := s.regs.ReadCoils(addr, count)
		if err != nil {
			return exception(fn, ExIllegalAddress)
		}
		packed := packBits(bits)
		return append([]byte{fn, byte(len(packed))}, packed...)

	case FuncReadInput:
		if len(body) != 4 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(body[0:])
		count := binary.BigEndian.Uint16(body[2:])
		if count == 0 || count > MaxRegsPerRead {
			return exception(fn, ExIllegalValue)
		}
		regs, err := s.regs.ReadInput(addr, count)
		if err != nil {
			return exception(fn, ExIllegalAddress)
		}
		packed := packRegs(regs)
		return append([]byte{fn, byte(len(packed))}, packed...)

	case FuncWriteSingleCoil:
		if len(body) != 4 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(body[0:])
		val := binary.BigEndian.Uint16(body[2:])
		if val != 0x0000 && val != 0xFF00 {
			return exception(fn, ExIllegalValue)
		}
		if err := s.regs.WriteCoil(addr, val == 0xFF00); err != nil {
			return exception(fn, ExIllegalAddress)
		}
		return pdu // echo per spec

	case FuncWriteMultipleCoils:
		if len(body) < 5 {
			return exception(fn, ExIllegalValue)
		}
		addr := binary.BigEndian.Uint16(body[0:])
		count := binary.BigEndian.Uint16(body[2:])
		byteCount := int(body[4])
		if count == 0 || count > MaxCoilsPerWrite || byteCount != (int(count)+7)/8 || len(body) != 5+byteCount {
			return exception(fn, ExIllegalValue)
		}
		bits, err := unpackBits(body[5:], int(count))
		if err != nil {
			return exception(fn, ExIllegalValue)
		}
		// One locked block write: the scan cycle sees every coil of the
		// request or none, so a relay pair swung between the buses is never
		// seen double-closed, and an out-of-range request writes nothing.
		if err := s.regs.SetCoils(addr, bits); err != nil {
			return exception(fn, ExIllegalAddress)
		}
		resp := make([]byte, 5)
		resp[0] = fn
		binary.BigEndian.PutUint16(resp[1:], addr)
		binary.BigEndian.PutUint16(resp[3:], count)
		return resp

	default:
		return exception(fn, ExIllegalFunction)
	}
}

// Serve is a convenience for cmd binaries: listen, log the bound address
// and block until ctx is cancelled, then shut down through Close so
// in-flight connections drain before returning.
func (s *Server) Serve(ctx context.Context, addr string) error {
	bound, err := s.Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("modbus: listening on %s", bound)
	<-ctx.Done()
	if err := s.Close(); err != nil {
		return err
	}
	return ctx.Err()
}
