package main

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"insure/internal/relay"
	"insure/internal/telemetry"
)

// supervisor runs the panel's real-time control loop and restarts it when
// a tick panics: the loop recovers, the plant control state is re-synced
// from the journal, and the relay fabric is re-driven from the restored
// coil intent, so a half-applied tick cannot linger.
//
// A hang is not recovered in-process. A stalled journal fsync holds the
// store lock that a re-sync would need, and nothing can preempt a goroutine
// wedged inside the physics tick, so a hang is the process-restart case,
// which the journal also covers (see restoreInto). It stays visible:
// insure_sim_clock_seconds and /healthz's sim_clock_seconds stop advancing.
type supervisor struct {
	p  *panel
	ps *panelStore // nil = run without persistence

	// Interval is the real-time tick period.
	Interval time.Duration

	// onTick, when set, runs inside the loop before each plant tick. The
	// daemon hangs the fault injector here; tests hang panics and stalls.
	onTick func(elapsed time.Duration)

	restarts  atomic.Int64
	reapplied atomic.Int64 // relay pairs re-driven across all recoveries
	elapsed   atomic.Int64 // sim-elapsed nanos; survives restarts
}

func newSupervisor(p *panel, ps *panelStore) *supervisor {
	return &supervisor{p: p, ps: ps, Interval: time.Second}
}

// Restarts reports how many times a panicking control loop was restarted.
func (s *supervisor) Restarts() int64 { return s.restarts.Load() }

// Reapplied reports how many relay pairs recovery re-drove in total.
func (s *supervisor) Reapplied() int64 { return s.reapplied.Load() }

// Elapsed reports the sim-elapsed clock.
func (s *supervisor) Elapsed() time.Duration { return time.Duration(s.elapsed.Load()) }

// setElapsed seeds the clock, e.g. from a boot-time journal restore.
func (s *supervisor) setElapsed(d time.Duration) { s.elapsed.Store(int64(d)) }

// registerTelemetry exposes the supervisor's counters on reg.
func (s *supervisor) registerTelemetry(reg *telemetry.Registry) {
	reg.FuncGauge("insure_plcd_loop_restarts",
		"Control-loop restarts after a panicking tick.",
		func() float64 { return float64(s.Restarts()) })
	reg.FuncGauge("insure_plcd_relay_reapplied",
		"Relay pairs re-driven after a loop restart because the restored coil intent disagreed with the fabric.",
		func() float64 { return float64(s.Reapplied()) })
}

// Run ticks the plant every Interval until ctx is cancelled, restarting
// the loop after a panic. No tick starts once ctx is done, and Run returns
// only after the tick and the commit in flight have finished.
func (s *supervisor) Run(ctx context.Context) {
	t := time.NewTicker(s.Interval)
	defer t.Stop()
	for !s.loop(ctx, t) {
		n := s.resync()
		s.restarts.Add(1)
		log.Printf("control loop restarted: state re-synced from journal, %d relay pairs re-driven", n)
	}
}

// resync restores the newest journaled state into the live panel and
// re-drives the relay fabric from the restored coil intent, returning how
// many pairs disagreed.
func (s *supervisor) resync() int {
	if s.ps == nil {
		return 0
	}
	if _, ok, err := s.ps.restoreInto(s.p); err != nil || !ok {
		if err != nil {
			log.Printf("state re-sync failed, continuing with live state: %v", err)
		}
		return 0
	}
	before := make([]relay.Mode, s.p.Fabric.Size())
	for i := range before {
		before[i] = s.p.Fabric.Pair(i).Mode()
	}
	s.p.PLC.ScanNow()
	fixed := 0
	for i := range before {
		if s.p.Fabric.Pair(i).Mode() != before[i] {
			fixed++
		}
	}
	s.reapplied.Add(int64(fixed))
	return fixed
}

// loop ticks the plant on t until ctx is done, when it reports true, or a
// tick panics, when it recovers and reports false.
func (s *supervisor) loop(ctx context.Context, t *time.Ticker) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("control loop panic: %v", r)
		}
	}()
	for {
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		if ctx.Err() != nil {
			return true
		}
		elapsed := time.Duration(s.elapsed.Add(int64(s.Interval)))
		if s.onTick != nil {
			s.onTick(elapsed)
		}
		s.p.tick(s.Interval, elapsed)
		if s.ps != nil {
			s.ps.commit(s.p, elapsed)
		}
	}
}
