package main

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"insure/internal/relay"
	"insure/internal/telemetry"
)

// supervisor runs the panel's real-time control loop under a watchdog. Two
// failure modes are handled in-process:
//
//   - panic: the loop goroutine recovers, reports, and the watchdog starts
//     a fresh incarnation;
//   - wedge: no heartbeat within Patience (a hook or a journal fsync has
//     stalled) — the incarnation is abandoned and superseded.
//
// A goroutine cannot be killed, so abandonment is generation-fenced: every
// incarnation re-checks the generation counter between stages (after the
// hook, before the plant tick, before the heartbeat) and exits silently
// once superseded. After each restart the plant control state is re-synced
// from the journal and the relay fabric is re-driven from the restored
// coil intent, so a half-applied tick cannot linger. The fence cannot
// preempt a goroutine wedged inside the physics tick itself — that is the
// process-restart case, which the journal also covers (see restoreInto).
type supervisor struct {
	p  *panel
	ps *panelStore // nil = run without persistence

	// Interval is the real-time tick period; Patience is how long the
	// watchdog waits for a heartbeat before declaring the loop wedged.
	Interval time.Duration
	Patience time.Duration

	// onTick, when set, runs inside the loop before each plant tick. The
	// daemon hangs the fault injector here; tests hang wedges and panics.
	onTick func(elapsed time.Duration)

	gen       atomic.Int64
	beat      atomic.Int64 // wall-clock nanos of the last completed tick
	restarts  atomic.Int64
	reapplied atomic.Int64 // relay pairs re-driven across all recoveries
	elapsed   atomic.Int64 // sim-elapsed nanos; survives restarts
	crashCh   chan int64   // generation of a panicked incarnation
}

func newSupervisor(p *panel, ps *panelStore) *supervisor {
	return &supervisor{
		p:        p,
		ps:       ps,
		Interval: time.Second,
		Patience: 5 * time.Second,
		crashCh:  make(chan int64, 4),
	}
}

// Restarts reports how many times the watchdog replaced the control loop.
func (s *supervisor) Restarts() int64 { return s.restarts.Load() }

// Reapplied reports how many relay pairs recovery re-drove in total.
func (s *supervisor) Reapplied() int64 { return s.reapplied.Load() }

// Elapsed reports the sim-elapsed clock.
func (s *supervisor) Elapsed() time.Duration { return time.Duration(s.elapsed.Load()) }

// setElapsed seeds the clock, e.g. from a boot-time journal restore.
func (s *supervisor) setElapsed(d time.Duration) { s.elapsed.Store(int64(d)) }

// registerTelemetry exposes the watchdog's counters on reg.
func (s *supervisor) registerTelemetry(reg *telemetry.Registry) {
	reg.FuncGauge("insure_plcd_loop_restarts",
		"Control-loop incarnations the watchdog has replaced after a panic or wedge.",
		func() float64 { return float64(s.Restarts()) })
	reg.FuncGauge("insure_plcd_relay_reapplied",
		"Relay pairs re-driven after a loop restart because the restored coil intent disagreed with the fabric.",
		func() float64 { return float64(s.Reapplied()) })
}

// Run drives the loop and its watchdog until ctx is cancelled.
func (s *supervisor) Run(ctx context.Context) {
	s.beat.Store(time.Now().UnixNano())
	go s.loop(ctx, s.gen.Load())

	patience := s.Patience
	if patience <= 0 {
		patience = 5 * time.Second
	}
	check := time.NewTicker(patience / 4)
	defer check.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case g := <-s.crashCh:
			if g != s.gen.Load() {
				continue // a stale incarnation's death rattle
			}
			s.restart(ctx, "panicked")
		case <-check.C:
			if time.Duration(time.Now().UnixNano()-s.beat.Load()) > patience {
				s.restart(ctx, "wedged")
			}
		}
	}
}

// restart supersedes the current incarnation, re-syncs the plant control
// state from the journal, and launches a fresh loop.
func (s *supervisor) restart(ctx context.Context, why string) {
	gen := s.gen.Add(1)
	n := s.resync()
	s.restarts.Add(1)
	s.beat.Store(time.Now().UnixNano())
	log.Printf("control loop %s: restarted (incarnation %d), state re-synced from journal, %d relay pairs re-driven", why, gen, n)
	go s.loop(ctx, gen)
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

// loop is one control-loop incarnation.
func (s *supervisor) loop(ctx context.Context, gen int64) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("control loop panic: %v", r)
			select {
			case s.crashCh <- gen:
			default:
			}
		}
	}()
	t := time.NewTicker(s.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if s.gen.Load() != gen {
			return // superseded while we slept
		}
		elapsed := time.Duration(s.elapsed.Add(int64(s.Interval)))
		if s.onTick != nil {
			s.onTick(elapsed)
		}
		if s.gen.Load() != gen {
			return // the hook wedged and we were abandoned: do not touch the plant
		}
		s.p.tick(s.Interval, elapsed)
		if s.ps != nil {
			s.ps.commit(s.p, elapsed)
		}
		if s.gen.Load() != gen {
			return // don't heartbeat for a stale incarnation
		}
		s.beat.Store(time.Now().UnixNano())
	}
}
