package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"insure/internal/core"
	"insure/internal/journal"
	"insure/internal/logbook"
	"insure/internal/plc"
	"insure/internal/sim"
	"insure/internal/solar"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// The fieldbus workload is the coordinator's journaled control loop as a
// deployment runs it: one cloudy-day plant whose InSURE manager (survival
// ladder on) reads and drives the battery panel over Modbus TCP on
// loopback and commits every control pass to an fsynced journal on disk.

func runFieldbus(r *rep, seed int64, tr *tracer) error {
	cfg := sim.DefaultConfig(trace.Table6Day(solar.Cloudy, seed))
	cfg.WindowEnd = cfg.WindowStart + r.size.fieldbusWindow
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		return err
	}
	mc := core.DefaultConfig()
	mc.Survival = core.DefaultSurvivalConfig()
	m := core.New(mc, cfg.BatteryCount)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	m.AttachTelemetry(reg)

	addr, stopServer, err := sys.ServePanel()
	if err != nil {
		return err
	}
	defer stopServer()
	var ft *fieldbusTrace
	fsys := journal.FS(journal.Disk)
	if tr != nil {
		ft = &fieldbusTrace{tr: tr}
		ft.io = &ioProbe{tr: tr, prefix: "journal.", parent: &ft.pass}
		fsys = ft.io.fs()
		ft.relay, err = newModbusRelay(addr, tr, &ft.pass)
		if err != nil {
			return err
		}
		defer ft.relay.close()
		addr = ft.relay.addr()
		ft.wrapPLC(sys.PLC)
	}
	cli, stopClient, err := sys.ConnectRemote(addr)
	if err != nil {
		return err
	}
	defer stopClient()
	store, err := journal.OpenFS(fsys, r.dir)
	if err != nil {
		return err
	}
	jm := core.NewJournaled(m, store)
	mgr := &timedManager{Manager: jm, bracket: bracket{
		begin: func() int64 {
			if ft != nil {
				ft.beginPass()
			}
			return clock()
		},
		end: func(start int64) {
			end := clock()
			r.lat.add(end - start)
			r.attempted++
			if ft != nil {
				ft.endPass(start, end)
			}
		},
	}}

	r.startTimed()
	res := sys.Run(mgr)
	r.stopTimed()
	start, end := sys.Span()
	r.plantYears = (end - start).Hours() / hoursPerYear

	fallbacks := 0
	for _, e := range sys.Log.Filter(logbook.Emergency) {
		if e.Subject == "fieldbus" {
			fallbacks++
		}
	}
	transport := cli.Retries() + cli.Timeouts()
	r.failed += int64(fallbacks) + transport
	r.check(fallbacks == 0 && transport == 0, "fieldbus: %d local fallbacks, %d retries, %d timeouts",
		fallbacks, cli.Retries(), cli.Timeouts())
	commitErr := jm.Err()
	if commitErr != nil {
		r.failed++
	}
	r.check(commitErr == nil, "journal commit failed: %v", commitErr)
	if err := store.Close(); err != nil {
		return err
	}
	live := m.State()
	r.fold("%+v\n%x\n", res, live)

	// The newest durable state image must be the live manager's state, and
	// recovery must land on it.
	loaded, err := journal.Load(r.dir)
	if err != nil {
		return err
	}
	newest := loaded.Snapshot
	if n := len(loaded.Entries); n > 0 {
		newest = loaded.Entries[n-1]
	}
	r.check(bytes.Equal(newest, live), "newest journaled state differs from the live manager's")
	rec, recStore, err := core.Recover(mc, cfg.BatteryCount, r.dir)
	if err != nil {
		return err
	}
	if err := recStore.Close(); err != nil {
		return err
	}
	r.check(rec.Recoveries() == m.Recoveries()+1 && rec.Mode() == m.Mode(),
		"recovered manager (mode %v, %d recoveries) does not match the live one (mode %v, %d)",
		rec.Mode(), rec.Recoveries(), m.Mode(), m.Recoveries())

	if ft == nil {
		return nil
	}
	ft.relay.close()
	passes := float64(r.attempted)
	tr.record(ft.spans...)
	tr.record(ft.io.spans...)
	tr.record(ft.relay.spans...)
	tr.set("fieldbus.modbus.rtt_us.p50", ft.relay.rtt.quantile(0.5)/1e3)
	tr.set("fieldbus.modbus.rtt_us.p99", ft.relay.rtt.quantile(0.99)/1e3)
	tr.set("fieldbus.modbus.round_trips_per_pass", float64(ft.relay.rtt.n)/passes)
	tr.set("fieldbus.journal.commit_us.p50", ft.commit.quantile(0.5)/1e3)
	tr.set("fieldbus.journal.commit_us.p99", ft.commit.quantile(0.99)/1e3)
	tr.set("fieldbus.journal.fsyncs_per_pass", float64(ft.io.syncs)/passes)
	tr.set("fieldbus.journal.bytes_per_pass", float64(ft.io.written)/passes)
	tr.set("fieldbus.core.control_self_us.p50", ft.self.quantile(0.5)/1e3)
	tr.set("fieldbus.plc.sample_ns.p50", ft.sample.quantile(0.5))
	tr.set("fieldbus.plc.actuate_ns.p50", ft.actuate.quantile(0.5))
	return nil
}

// fieldbusTrace splits every control pass into its Modbus round trips, its
// journal commit and the rest, and times the PLC's scan hooks, which the
// panel's server goroutine contends with for the register file.
type fieldbusTrace struct {
	tr              *tracer
	io              *ioProbe
	relay           *modbusRelay
	pass            int64 // span ID of the pass in progress
	ioBusy, rttSum  int64 // totals when the pass began
	commit, self    hist
	sample, actuate hist
	spans           []span
}

func (ft *fieldbusTrace) beginPass() {
	id := ft.tr.id()
	ft.relay.mu.Lock()
	ft.pass = id
	ft.rttSum = ft.relay.sum
	ft.relay.mu.Unlock()
	ft.ioBusy = ft.io.busy
}

func (ft *fieldbusTrace) endPass(start, end int64) {
	ft.relay.mu.Lock()
	rtt := ft.relay.sum - ft.rttSum
	id := ft.pass
	ft.pass = 0
	ft.relay.mu.Unlock()
	commit := ft.io.busy - ft.ioBusy
	ft.commit.add(commit)
	// The relay puts a second loopback hop, as long as the one it times, in
	// front of every round trip; neither belongs to the pass's own work.
	ft.self.add(end - start - commit - 2*rtt)
	ft.spans = append(ft.spans, span{Name: "core.control_pass", Start: start, Dur: end - start, ID: id})
}

func (ft *fieldbusTrace) wrapPLC(p *plc.PLC) {
	sample, actuate := p.Sample, p.Actuate
	p.Sample = func(rf *plc.RegisterFile) {
		t := clock()
		sample(rf)
		ft.sample.add(clock() - t)
	}
	p.Actuate = func(rf *plc.RegisterFile) {
		t := clock()
		actuate(rf)
		ft.actuate.add(clock() - t)
	}
}

// modbusRelay is a pass-through hop between the manager's Modbus client
// and the panel's server. It times each request-response exchange and,
// while a control pass is open, records it as the pass's child span.
type modbusRelay struct {
	ln       net.Listener
	upstream string
	tr       *tracer
	parent   *int64 // guarded by mu

	mu    sync.Mutex
	rtt   hist
	sum   int64
	spans []span
	conns []net.Conn

	wg   sync.WaitGroup
	once sync.Once
}

func newModbusRelay(upstream string, tr *tracer, parent *int64) (*modbusRelay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &modbusRelay{ln: ln, upstream: upstream, tr: tr, parent: parent}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *modbusRelay) addr() string { return r.ln.Addr().String() }

func (r *modbusRelay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.upstream)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(1)
		go r.serve(c, s)
	}
}

// serve relays one client connection. Modbus TCP is strictly request then
// response on a connection, so each exchange is one frame each way.
func (r *modbusRelay) serve(c, s net.Conn) {
	defer r.wg.Done()
	defer c.Close()
	defer s.Close()
	for {
		req, err := readFrame(c)
		if err != nil {
			return
		}
		t0 := clock()
		if _, err := s.Write(req); err != nil {
			return
		}
		resp, err := readFrame(s)
		if err != nil {
			return
		}
		t1 := clock()
		if _, err := c.Write(resp); err != nil {
			return
		}
		r.mu.Lock()
		r.rtt.add(t1 - t0)
		r.sum += t1 - t0
		if *r.parent != 0 {
			r.spans = append(r.spans, span{Name: "modbus.round_trip", Start: t0, Dur: t1 - t0,
				ID: r.tr.id(), Parent: *r.parent})
		}
		r.mu.Unlock()
	}
}

// readFrame reads one Modbus TCP frame: the 7-byte MBAP header, whose
// length field counts the unit byte and the PDU, then the PDU.
func readFrame(c net.Conn) ([]byte, error) {
	hdr := make([]byte, 7, 7+253)
	if _, err := io.ReadFull(c, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[4:6])) - 1
	if n < 0 {
		return nil, io.ErrUnexpectedEOF
	}
	frame := append(hdr, make([]byte, n)...)
	if _, err := io.ReadFull(c, frame[7:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// close stops the relay and waits for its goroutines.
func (r *modbusRelay) close() {
	r.once.Do(func() {
		r.ln.Close()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		r.wg.Wait()
	})
}
