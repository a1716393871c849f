package core

import (
	"fmt"

	"insure/internal/telemetry"
)

// managerTelemetry mirrors the manager's introspection counters into the
// live registry. The plain int fields stay authoritative for tests and
// results; the telemetry counters are the concurrency-safe copies a
// /metrics scrape may read while a control pass is mid-flight.
type managerTelemetry struct {
	// reg is kept so ladder transitions can republish the operating mode
	// into the /healthz report (Registry.SetOpMode).
	reg *telemetry.Registry

	screenings      *telemetry.Counter
	capEvents       *telemetry.Counter
	boostEvents     *telemetry.Counter
	quarantines     *telemetry.Counter
	recoveries      *telemetry.Counter
	reconciliations *telemetry.Counter

	// Survivability ladder (survival.go): current rung, lifetime ladder
	// moves, and the live shedding depth the posture imposes.
	mode            *telemetry.Gauge
	modeTransitions *telemetry.Counter
	shedWatts       *telemetry.Gauge
}

// AttachTelemetry registers the manager's counters on reg and installs a
// faultwatch health check: /healthz degrades as soon as any battery unit is
// quarantined. Call it once, before the first Control pass.
func (m *Manager) AttachTelemetry(reg *telemetry.Registry) {
	t := &managerTelemetry{
		reg: reg,
		screenings: reg.Counter("insure_spm_screenings_total",
			"SPM coarse-interval offline screenings run."),
		capEvents: reg.Counter("insure_tpm_cap_events_total",
			"TPM load-shedding actions on discharge-current overcap."),
		boostEvents: reg.Counter("insure_spm_boost_events_total",
			"Units admitted through the relaxed on-demand boost threshold."),
		quarantines: reg.Counter("insure_faultwatch_quarantines_total",
			"Battery units permanently removed from rotation by fault detection."),
		recoveries: reg.Counter("insure_recoveries_total",
			"Control-plane crash recoveries completed from the state journal."),
		reconciliations: reg.Counter("insure_recovery_reconciliations_total",
			"Relay pairs re-driven after recovery because restored intent disagreed with the live plant."),
		mode: reg.Gauge("insure_survival_mode",
			"Survivability ladder rung: 0 normal, 1 conservative, 2 survival, 3 blackout, 4 blackstart."),
		modeTransitions: reg.Counter("insure_survival_transitions_total",
			"Survivability ladder transitions over the manager's life."),
		shedWatts: reg.Gauge("insure_survival_shed_watts",
			"Load the survivability posture withholds versus what the raw power budget supports, watts."),
	}
	m.tel = t
	// Publish the operating mode into /healthz from the start: a load
	// balancer probing a freshly attached (or crash-recovered) plant sees
	// the real rung, and a plant restored mid-blackout reports draining
	// immediately instead of after its next transition.
	reg.SetOpMode(m.Mode().String(), m.Mode() == ModeBlackout)
	if m.sv != nil {
		// Recovery ordering: a restored mode machine attaches telemetry
		// after its state is already non-zero; bring the registry up to the
		// manager's lifetime count. Setting the total keeps re-attachment
		// after a crash recovery (same registry, restored manager) from
		// double counting.
		t.mode.Set(float64(m.sv.mode))
		t.modeTransitions.SetTotal(int64(m.sv.transitions))
		t.shedWatts.Set(m.sv.shedWatts)
	}
	// The health check reads only the atomic counter, so it is safe from
	// the HTTP goroutine while the control loop runs.
	reg.AddHealthCheck("faultwatch", func() error {
		if n := t.quarantines.Value(); n > 0 {
			return fmt.Errorf("%d units quarantined", n)
		}
		return nil
	})
}
