package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/plc"
	"insure/internal/relay"
)

func testPanel(t *testing.T, n int) *panel {
	t.Helper()
	p, err := newPanel(n, 0.5, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPanelStateRoundTrip proves the daemon's full state image — clock,
// batteries, fabric, command registers — restores byte-identically into a
// freshly-wired panel.
func TestPanelStateRoundTrip(t *testing.T) {
	p := testPanel(t, 4)
	if err := p.PLC.Regs.WriteCoil(plc.CoilCharge(1), true); err != nil {
		t.Fatal(err)
	}
	if err := p.PLC.Regs.WriteCoil(plc.CoilDischarge(2), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p.tick(time.Second, time.Duration(i+1)*time.Second)
	}

	var e journal.Encoder
	p.appendState(&e, 30*time.Second)

	q := testPanel(t, 4)
	elapsed, err := q.restoreState(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 30*time.Second {
		t.Fatalf("elapsed = %v, want 30s", elapsed)
	}
	var e2 journal.Encoder
	q.appendState(&e2, elapsed)
	if string(e.Bytes()) != string(e2.Bytes()) {
		t.Fatal("restored panel state is not byte-identical")
	}
	if q.Fabric.Pair(1).Mode() != relay.Charging || q.Fabric.Pair(2).Mode() != relay.Discharging {
		t.Fatalf("fabric modes lost: %v %v", q.Fabric.Pair(1).Mode(), q.Fabric.Pair(2).Mode())
	}
	// And the restored panel keeps ticking in lockstep with the original.
	p.tick(time.Second, 31*time.Second)
	q.tick(time.Second, 31*time.Second)
	e.Reset()
	e2.Reset()
	p.appendState(&e, 31*time.Second)
	q.appendState(&e2, 31*time.Second)
	if string(e.Bytes()) != string(e2.Bytes()) {
		t.Fatal("restored panel diverged on the next tick")
	}
}

// TestSupervisorRecoversFromPanic: a hook that panics ends the loop; Run
// must restart it, keep ticking, and return once the context is cancelled.
func TestSupervisorRecoversFromPanic(t *testing.T) {
	p := testPanel(t, 2)
	ps, err := openPanelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	sup := newSupervisor(p, ps)
	sup.Interval = time.Millisecond
	var fired atomic.Bool
	sup.onTick = func(elapsed time.Duration) {
		if elapsed >= 5*time.Millisecond && fired.CompareAndSwap(false, true) {
			panic("injected control-loop fault")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan struct{})
	go func() {
		sup.Run(ctx)
		close(returned)
	}()

	waitFor(t, 5*time.Second, func() bool { return sup.Restarts() >= 1 })
	after := sup.Elapsed()
	waitFor(t, 5*time.Second, func() bool { return sup.Elapsed() > after+10*time.Millisecond })
	if err := ps.Err(); err != nil {
		t.Fatalf("journal degraded across panic recovery: %v", err)
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the context was cancelled")
	}
}

// TestSupervisorRunWaitsForInFlightTick cancels the context while a tick is
// blocked in its hook. Run must not return until that tick and its commit
// have finished, so the newest journaled image is the blocked tick's.
func TestSupervisorRunWaitsForInFlightTick(t *testing.T) {
	dir := t.TempDir()
	ps, err := openPanelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sup := newSupervisor(testPanel(t, 2), ps)
	sup.Interval = time.Millisecond
	const blockAt = 5 * time.Millisecond
	blocked, release := make(chan struct{}), make(chan struct{})
	sup.onTick = func(elapsed time.Duration) {
		if elapsed == blockAt {
			close(blocked)
			<-release
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		sup.Run(ctx)
		close(returned)
	}()

	<-blocked
	cancel()
	select {
	case <-returned:
		close(release)
		t.Fatal("Run returned while a tick was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-returned
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := openPanelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	elapsed, ok, err := reopened.restoreInto(testPanel(t, 2))
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if elapsed != blockAt {
		t.Fatalf("newest journaled image is at %v, want the blocked tick's %v", elapsed, blockAt)
	}
}

// TestSupervisorResyncReappliesRelays: if a dying incarnation left the
// fabric disagreeing with the journaled coil intent, resync re-drives it
// and counts the repair.
func TestSupervisorResyncReappliesRelays(t *testing.T) {
	p := testPanel(t, 3)
	ps, err := openPanelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	// The crash scenario: the coordination node wrote the charge coil over
	// Modbus, but the loop died before the PLC scan actuated it — the
	// committed image holds the intent (coil set) with the fabric still
	// open. Restore alone cannot fix that; the post-restore scan must.
	if err := p.PLC.Regs.WriteCoil(plc.CoilCharge(0), true); err != nil {
		t.Fatal(err)
	}
	ps.commit(p, 10*time.Second)

	sup := newSupervisor(p, ps)
	fixed := sup.resync()
	if fixed != 1 {
		t.Fatalf("resync re-drove %d pairs, want 1", fixed)
	}
	if sup.Reapplied() != 1 {
		t.Fatalf("Reapplied = %d, want 1", sup.Reapplied())
	}
	if p.Fabric.Pair(0).Mode() != relay.Charging {
		t.Fatalf("fabric mode after resync = %v, want charging", p.Fabric.Pair(0).Mode())
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
