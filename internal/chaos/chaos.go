// Package chaos is the randomized crash-campaign harness for the InSURE
// control plane.
//
// The journal and recovery layers (internal/journal, internal/core) are
// each proven by targeted tests; this package proves them *together*,
// under adversarial schedules no one sat down and wrote: controller
// processes killed clean and killed mid-write, fieldbus partitions between
// the coordination node and the control panel, and the hardware fault
// repertoire of internal/faults — all drawn from a seeded PRNG so every
// campaign is exactly reproducible from its seed.
//
// A campaign runs the same plant twice: a reference day that suffers only
// the hardware faults, and a chaos day that additionally loses its
// controller and its fieldbus over and over. Per-tick invariants (no
// shorted relay topology, SoC in bounds, no recovery-induced brownout)
// are checked on the chaos day; at the end the two trajectories are
// compared for convergence. Rerunning a campaign with the same seed must
// reproduce the chaos trajectory bit-for-bit — the recovery path is as
// deterministic as the happy path.
//
// # Seeding contract
//
// Every source of adversity in a campaign draws its randomness in one of
// exactly three ways, so that a seed pins the whole campaign and no layer
// can steal entropy from another:
//
//  1. Up-front plans. Anything scheduled ahead of time — the chaos Plan in
//     this package, wan.PlanOutages partition/collapse windows — consumes a
//     fixed number of PRNG draws per event (Plan draws six per event even
//     when a kind needs fewer; PlanOutages draws three per window) from its
//     own rand.New(rand.NewSource(seed)). Fixed draw counts mean adding an
//     event kind never shifts the schedule of later events under the same
//     seed.
//  2. Stateless per-chunk fates. Per-tick randomness that cannot be planned
//     up front — one WAN chunk's delivered/dropped/corrupted fate, one
//     disk write's torn/failed fate — is a pure hash (SplitMix64) of its
//     coordinates: (seed, from, to, transfer, chunk, attempt) for the WAN,
//     (seed, path, op kind, per-path op count) for internal/diskfault.
//     No stream state survives between draws, so a daemon resumed from a
//     snapshot re-derives the identical fates mid-image. Disk bit rot
//     extends the scheme with a persistence key: decay is drawn per
//     (seed, path, file generation), the generation bumping on every
//     create-or-replace event, so a decayed file reads back identically
//     decayed until something rewrites it — which is what makes
//     scrub-and-repair both observable and reproducible.
//  3. No randomness at all. Deterministic fault hooks such as
//     faults.FlakyProxy.SetPartition and diskfault.FS.SetDegraded (the
//     sick-disk window: every fsync fails while it is on) are switched on
//     and off by the campaign at planned times; the mechanism itself has
//     no entropy to seed away, and its effect is reproduced by replaying
//     the plan.
//
// Seed lanes keep concurrent streams disjoint: per-site solar traces use
// seed+1000*(site+1)+day, the WAN partition planner offsets the campaign
// seed, chunk fates fold the link seed into the hash, and the bit-rot
// storm gives its kill planner and each injecting filesystem its own
// additive lane constant. Never share one PRNG between layers and never
// draw a data-dependent number of values — both break bit-identical
// reruns and snapshot resume.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"insure/internal/faults"
)

// Kind classifies one scheduled chaos event.
type Kind int

const (
	// KillClean hard-stops the controller between journal commits: the
	// journal is intact and recovery must be invisible in the trajectory.
	KillClean Kind = iota
	// KillTorn hard-stops the controller mid-write: the journal tail is
	// torn, recovery restores a stale pass, and reconciliation must
	// re-drive the plant back under the journal's intent.
	KillTorn
	// Partition severs the fieldbus between the coordination node and the
	// control panel for Dur; the manager must ride it out on local
	// fallbacks and reconverge when the link heals.
	Partition
	// SensorFault injects a transducer failure (stick or drift) from
	// internal/faults.
	SensorFault
	// HardwareFault injects a destructive plant failure (battery capacity
	// loss, relay stuck open, relay welded closed) from internal/faults.
	HardwareFault
)

func (k Kind) String() string {
	switch k {
	case KillClean:
		return "kill-clean"
	case KillTorn:
		return "kill-torn"
	case Partition:
		return "partition"
	case SensorFault:
		return "sensor-fault"
	case HardwareFault:
		return "hardware-fault"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled chaos event.
type Event struct {
	// At is the time-of-day the event lands.
	At time.Duration
	// Kind selects the failure mechanism.
	Kind Kind
	// Dur is how long a Partition lasts (zero for other kinds).
	Dur time.Duration
	// Inject is the concrete plant fault for SensorFault/HardwareFault
	// events, ready for a faults.Plan. Zero-valued for other kinds.
	Inject faults.Event
}

func (e Event) String() string {
	switch e.Kind {
	case Partition:
		return fmt.Sprintf("%v@%v+%v", e.Kind, e.At, e.Dur)
	case SensorFault, HardwareFault:
		return fmt.Sprintf("%v@%v(%v)", e.Kind, e.At, e.Inject)
	default:
		return fmt.Sprintf("%v@%v", e.Kind, e.At)
	}
}

// Config shapes a campaign. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Seed drives every random choice in the campaign. Two campaigns with
	// the same Config produce bit-identical plans and trajectories.
	Seed int64
	// Events is how many chaos events the plan holds.
	Events int
	// Remote routes the chaos run's control plane over Modbus TCP through
	// a faults.FlakyProxy, which is what makes Partition events real.
	// Without Remote the partition weight is folded into the kill kinds.
	Remote bool
	// StateDir is where the chaos run journals its control state. Required.
	StateDir string
}

// DefaultConfig is a mid-sized campaign on the paper's prototype plant.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Events: 60}
}

// planFrom and planTo bound event times within the operating day. Events
// are spread over evenly-sized slots with jittered offsets, keeping
// consecutive events at least two control periods apart so every recovery
// has committed fresh state before the next hit.
const (
	planFrom = 8*time.Hour + 15*time.Minute
	planTo   = 19*time.Hour + 15*time.Minute
)

// minEventGap is the clearance kept on both sides of an event's slot, so
// two consecutive events are always at least 2×minEventGap (= two 30 s
// control periods) apart.
const minEventGap = 30 * time.Second

// maxHardwareFaults caps destructive plant damage per campaign: beyond a
// handful of dead batteries and seized relays the day is lost to physics,
// not to the control plane under test.
const maxHardwareFaults = 4

// Plan expands a Config into its event schedule. All randomness is
// consumed here, up front, from a PRNG seeded with cfg.Seed — the
// campaign itself is then a deterministic replay of the plan.
func Plan(cfg Config) ([]Event, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("chaos: Events must be positive")
	}
	span := planTo - planFrom
	stride := span / time.Duration(cfg.Events)
	if stride < 3*minEventGap {
		return nil, fmt.Errorf("chaos: %d events over %v leaves %v between events; need at least %v",
			cfg.Events, span, stride, 3*minEventGap)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, 0, cfg.Events)
	hardware := 0
	for i := 0; i < cfg.Events; i++ {
		// Fixed number of draws per event, whatever kind it rolls, so the
		// random stream layout never depends on earlier outcomes.
		jit := time.Duration(rnd.Int63n(int64(stride - 2*minEventGap)))
		roll := rnd.Float64()
		unit := rnd.Intn(plantBatteries)
		mag := rnd.Float64()
		durRoll := rnd.Int63n(int64(90 * time.Second))
		sub := rnd.Intn(3)

		e := Event{At: planFrom + time.Duration(i)*stride + minEventGap + jit}
		switch {
		case roll < 0.30:
			e.Kind = KillClean
		case roll < 0.45:
			e.Kind = KillTorn
		case roll < 0.70:
			if cfg.Remote {
				e.Kind = Partition
				e.Dur = 45*time.Second + time.Duration(durRoll)
			} else if roll < 0.60 {
				e.Kind = KillClean // no fieldbus to cut: fold into kills
			} else {
				e.Kind = KillTorn
			}
		case roll < 0.90 || hardware >= maxHardwareFaults:
			e.Kind = SensorFault
			if mag < 0.5 {
				e.Inject = faults.Event{At: e.At, Kind: faults.SensorStick, Unit: unit}
			} else {
				e.Inject = faults.Event{At: e.At, Kind: faults.SensorDrift, Unit: unit,
					Magnitude: 0.1 + 0.8*(mag-0.5)}
			}
		default:
			e.Kind = HardwareFault
			hardware++
			switch sub {
			case 0:
				e.Inject = faults.Event{At: e.At, Kind: faults.BatteryFail, Unit: unit,
					Magnitude: 0.2 + 0.3*mag}
			case 1:
				e.Inject = faults.Event{At: e.At, Kind: faults.RelayStuckOpen, Unit: unit}
			default:
				e.Inject = faults.Event{At: e.At, Kind: faults.RelayWeldClosed, Unit: unit}
			}
		}
		events = append(events, e)
	}
	return events, nil
}

// faultPlanOf collects the plant-fault events of a plan into the schedule
// internal/faults understands. Both the reference run and the chaos run
// inject this same plan, so hardware damage never explains a divergence.
func faultPlanOf(events []Event) faults.Plan {
	var p faults.Plan
	for _, e := range events {
		if e.Kind == SensorFault || e.Kind == HardwareFault {
			p = append(p, e.Inject)
		}
	}
	return p
}
