package core

import (
	"math"
	"testing"
	"time"

	"insure/internal/journal"
	"insure/internal/sim"
	"insure/internal/telemetry"
	"insure/internal/trace"
)

// tickRange drives sys with mgr from start (inclusive) to end (exclusive).
func tickRange(sys *sim.System, mgr sim.Manager, start, end, step time.Duration) {
	for tod := start; tod < end; tod += step {
		sys.Tick(tod, mgr)
	}
}

// TestManagerStateRoundTripContinuation is the property test at the heart
// of crash recovery: capture State() mid-run, Restore() into a fresh
// manager, run both managers N more ticks on identical plants — the two
// control planes must stay byte-identical the whole way.
func TestManagerStateRoundTripContinuation(t *testing.T) {
	mk := func() (*sim.System, *Manager) {
		cfg := sim.DefaultConfig(trace.FullSystemHigh())
		cfg.RecordEvery = time.Minute
		sys, err := sim.New(cfg, sim.NewSeismicSink())
		if err != nil {
			t.Fatal(err)
		}
		return sys, New(DefaultConfig(), cfg.BatteryCount)
	}
	sysA, mA := mk()
	sysB, mB := mk()
	start, _ := sysA.Span()
	step := time.Second
	mid := start + 3*time.Hour

	// Drive both identical worlds to the capture point (determinism gives
	// identical manager state), then replace B's manager with a fresh one
	// rebuilt purely from A's serialized state.
	tickRange(sysA, mA, start, mid, step)
	tickRange(sysB, mB, start, mid, step)

	mC := New(DefaultConfig(), 6)
	if err := mC.Restore(mA.State()); err != nil {
		t.Fatal(err)
	}
	if string(mC.State()) != string(mA.State()) {
		t.Fatal("State→Restore→State not byte-identical at capture point")
	}

	// Continue: A with the original manager, B with the restored clone.
	for h := 0; h < 4; h++ {
		from := mid + time.Duration(h)*time.Hour
		to := from + time.Hour
		tickRange(sysA, mA, from, to, step)
		tickRange(sysB, mC, from, to, step)
		if string(mA.State()) != string(mC.State()) {
			t.Fatalf("restored manager diverged from original %v into the continuation", to-mid)
		}
	}
	// The plants saw identical control decisions throughout.
	if sysA.Brownouts() != sysB.Brownouts() {
		t.Errorf("brownouts diverged: %d vs %d", sysA.Brownouts(), sysB.Brownouts())
	}
}

// TestManagerRestoreRejectsWrongFleet locks the unit-count guard.
func TestManagerRestoreRejectsWrongFleet(t *testing.T) {
	m := New(DefaultConfig(), 6)
	other := New(DefaultConfig(), 4)
	if err := other.Restore(m.State()); err == nil {
		t.Fatal("restore accepted a 6-unit state into a 4-unit manager")
	}
	if err := m.Restore([]byte{0xFF, 0x00}); err == nil {
		t.Fatal("restore accepted garbage bytes")
	}
}

// TestRecoverEmptyDirColdStarts: a state directory with nothing committed
// recovers to a cold-start manager, byte-identical to a fresh one, and
// counts no recovery.
func TestRecoverEmptyDirColdStarts(t *testing.T) {
	m, store, err := Recover(DefaultConfig(), 6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Recoveries() != 0 {
		t.Errorf("recoveries = %d, want 0", m.Recoveries())
	}
	if string(m.State()) != string(New(DefaultConfig(), 6).State()) {
		t.Error("empty-directory recovery differs from a fresh manager")
	}
}

// killResumeRun runs a full day with journaling, hard-stopping the control
// plane at killAt and restarting it from dir (JournaledManager.Restart).
// tornBytes > 0 additionally truncates that many bytes off the journal
// tail before recovery, simulating a crash mid-write. The original
// manager reports to the returned registry, so the restart must carry the
// recovered one onto it.
// snapshotEvery overrides the wrapper's snapshot cadence when > 0; the
// torn-tail test disables rotation so the tail record is guaranteed to be
// an appended delta rather than a just-rotated snapshot.
func killResumeRun(t *testing.T, dir string, killAt time.Duration, tornBytes int64, snapshotEvery int) (sim.Result, *sim.System, *Manager, *telemetry.Registry) {
	t.Helper()
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.RecordEvery = time.Minute
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	store, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m := New(DefaultConfig(), cfg.BatteryCount)
	m.AttachTelemetry(reg)
	jm := NewJournaled(m, store)
	if snapshotEvery > 0 {
		jm.SnapshotEvery = snapshotEvery
	}
	start, end := sys.Span()
	step := time.Second

	tickRange(sys, jm, start, killAt, step)
	// Hard stop: the controller process dies. Only what the journal holds
	// survives; the plant (sys) is physical and keeps its state.
	if _, err := jm.Restart(sys, killAt, tornBytes); err != nil {
		t.Fatal(err)
	}
	if jm.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", jm.Recoveries())
	}
	tickRange(sys, jm, killAt, end, step)
	if err := jm.Err(); err != nil {
		t.Fatalf("journal commit error after resume: %v", err)
	}
	res := sys.Finish(jm)
	if err := jm.Store().Close(); err != nil {
		t.Fatal(err)
	}
	return res, sys, jm.Manager, reg
}

// referenceRun is the uninterrupted twin of killResumeRun.
func referenceRun(t *testing.T, dir string) (sim.Result, *sim.System) {
	t.Helper()
	cfg := sim.DefaultConfig(trace.FullSystemHigh())
	cfg.RecordEvery = time.Minute
	sys, err := sim.New(cfg, sim.NewSeismicSink())
	if err != nil {
		t.Fatal(err)
	}
	store, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	jm := NewJournaled(New(DefaultConfig(), cfg.BatteryCount), store)
	res := sys.Run(jm)
	if err := jm.Err(); err != nil {
		t.Fatalf("journal commit error: %v", err)
	}
	return res, sys
}

// TestKillResumeCleanIsBitIdentical: a controller killed right after a
// committed control pass and recovered from the journal continues the day
// exactly as if it had never died — frame-for-frame.
func TestKillResumeCleanIsBitIdentical(t *testing.T) {
	refRes, refSys := referenceRun(t, t.TempDir())
	// Kill at noon, on a control-period boundary + 1s so the last pass's
	// commit is durable and no pass is lost.
	killAt := 12*time.Hour + time.Second
	res, sys, m2, reg := killResumeRun(t, t.TempDir(), killAt, 0, 0)

	refFrames := refSys.Recorder().Frames()
	frames := sys.Recorder().Frames()
	if len(refFrames) != len(frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(refFrames), len(frames))
	}
	for i := range frames {
		a, b := refFrames[i], frames[i]
		if a.At != b.At || a.StoredWh != b.StoredWh || a.RunningVM != b.RunningVM {
			t.Fatalf("frame %d (t=%v) diverged after clean kill/resume", i, b.At)
		}
		for u := range a.SoCs {
			if a.SoCs[u] != b.SoCs[u] || a.Modes[u] != b.Modes[u] {
				t.Fatalf("frame %d unit %d diverged: SoC %v vs %v, mode %v vs %v",
					i, u, a.SoCs[u], b.SoCs[u], a.Modes[u], b.Modes[u])
			}
		}
	}
	if res.Brownouts != refRes.Brownouts {
		t.Errorf("recovery induced brownouts: %d vs reference %d", res.Brownouts, refRes.Brownouts)
	}
	if res.ProcessedGB != refRes.ProcessedGB {
		t.Errorf("throughput diverged: %.3f vs %.3f GB", res.ProcessedGB, refRes.ProcessedGB)
	}
	// A clean kill needs no reconciliation, but the recovery itself is
	// visible in telemetry.
	if m2.Reconciliations() != 0 {
		t.Errorf("clean kill reconciled %d pairs, want 0", m2.Reconciliations())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["insure_recoveries_total"]; got != 1 {
		t.Errorf("insure_recoveries_total = %d, want 1", got)
	}
}

// TestKillResumeTornTailConverges: when the crash tears the final journal
// record, recovery restores a one-pass-stale intent, reconciliation
// re-drives the plant, and the trajectory reconverges — without any
// recovery-induced brownout.
func TestKillResumeTornTailConverges(t *testing.T) {
	refRes, refSys := referenceRun(t, t.TempDir())
	// Kill mid-afternoon, one second after a control pass, then tear half
	// of the tail record so recovery lands one pass behind the plant.
	killAt := 14*time.Hour + time.Second
	res, sys, m2, reg := killResumeRun(t, t.TempDir(), killAt, 40, 1<<30)

	if res.Brownouts > refRes.Brownouts {
		t.Errorf("recovery induced brownouts: %d vs reference %d", res.Brownouts, refRes.Brownouts)
	}
	// Trajectory convergence: by end of day the stored energy and SoC
	// profile must be back within a tight band of the uninterrupted run.
	refEnd := refSys.Bank.MeanSoC()
	end := sys.Bank.MeanSoC()
	if math.Abs(refEnd-end) > 0.02 {
		t.Errorf("end-of-day mean SoC diverged: %.4f vs %.4f", end, refEnd)
	}
	if math.Abs(res.UptimeFrac-refRes.UptimeFrac) > 0.01 {
		t.Errorf("uptime diverged: %.4f vs %.4f", res.UptimeFrac, refRes.UptimeFrac)
	}
	// Every re-driven pair is visible in telemetry; the counts agree.
	snap := reg.Snapshot()
	if got := snap.Counters["insure_recovery_reconciliations_total"]; got != int64(m2.Reconciliations()) {
		t.Errorf("telemetry reconciliations = %d, manager says %d", got, m2.Reconciliations())
	}
	if got := snap.Counters["insure_recoveries_total"]; got != 1 {
		t.Errorf("insure_recoveries_total = %d, want 1", got)
	}
}
