// Package faults is the deterministic fault-injection layer for the InSURE
// control plane.
//
// The paper's reliability argument (§2.3, Fig 8's Offline state) rests on
// the coordinator noticing a misbehaving battery position and taking it out
// of rotation. This package supplies the misbehaviour: scheduled, exactly
// reproducible hardware faults — transducers that stick or drift, relays
// that weld closed or seize open, battery units that lose capacity mid-day,
// and a control panel whose Modbus sessions drop. A fault plan is a plain
// list of (time, kind, unit, magnitude) events, so two runs with the same
// plan see bit-identical fault timing; there is no randomness to seed away.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"insure/internal/plc"
	"insure/internal/relay"
)

// Kind classifies an injectable fault.
type Kind int

const (
	// SensorStick freezes the unit's current transducer at its last
	// register code (a dead output stage).
	SensorStick Kind = iota
	// SensorDrift walks the unit's voltage transducer off calibration by
	// Magnitude volts of analog offset.
	SensorDrift
	// RelayStuckOpen seizes the unit's discharge relay armature: it never
	// closes again, so the unit silently stops serving load.
	RelayStuckOpen
	// RelayWeldClosed welds the unit's discharge relay contact: it can no
	// longer open, so the unit stays on the bus against commands.
	RelayWeldClosed
	// BatteryFail removes Magnitude (fraction) of the unit's capacity at
	// once — a shorted cell or sudden plate failure mid-day.
	BatteryFail
	// PanelDrop severs every live Modbus session on the control panel,
	// forcing clients to reconnect.
	PanelDrop
)

func (k Kind) String() string {
	switch k {
	case SensorStick:
		return "stick"
	case SensorDrift:
		return "drift"
	case RelayStuckOpen:
		return "relay-open"
	case RelayWeldClosed:
		return "relay-weld"
	case BatteryFail:
		return "bat"
	case PanelDrop:
		return "drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the time-of-day the fault lands.
	At time.Duration
	// Kind selects the failure mechanism.
	Kind Kind
	// Unit is the battery position the fault hits (ignored by PanelDrop).
	Unit int
	// Magnitude parameterises the fault: capacity-loss fraction for
	// BatteryFail, analog offset volts for SensorDrift. Zero picks the
	// kind's default (0.6 loss, 0.5 V).
	Magnitude float64
}

func (e Event) String() string {
	switch e.Kind {
	case PanelDrop:
		return fmt.Sprintf("%v@%v", e.Kind, e.At)
	case BatteryFail, SensorDrift:
		return fmt.Sprintf("%v:%d@%v:%g", e.Kind, e.Unit, e.At, e.Magnitude)
	default:
		return fmt.Sprintf("%v:%d@%v", e.Kind, e.Unit, e.At)
	}
}

// Plan is a fault schedule, ordered by time.
type Plan []Event

// Sorted returns a copy of the plan in injection order (stable by At).
func (p Plan) Sorted() Plan {
	out := append(Plan(nil), p...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// defaults fills zero magnitudes with the kind's default severity.
func (e Event) withDefaults() Event {
	if e.Magnitude == 0 {
		switch e.Kind {
		case BatteryFail:
			e.Magnitude = 0.6
		case SensorDrift:
			e.Magnitude = 0.5
		}
	}
	return e
}

// Parse decodes a fault plan from its command-line form: comma-separated
// events of the shape kind[:unit]@time[:magnitude], e.g.
//
//	bat:2@12h30m,relay-open:4@13h,stick:0@10h,drift:1@11h:0.25,drop@14h
//
// Times are Go durations measured from midnight. PanelDrop takes no unit;
// every other kind requires one. Magnitude defaults to 0.6 for bat (fraction
// of capacity lost) and 0.5 for drift (analog volts).
func Parse(spec string) (Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var plan Plan
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, tail, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("faults: %q: missing @time", part)
		}
		var e Event
		kindName, unitStr, hasUnit := strings.Cut(head, ":")
		switch kindName {
		case "stick":
			e.Kind = SensorStick
		case "drift":
			e.Kind = SensorDrift
		case "relay-open":
			e.Kind = RelayStuckOpen
		case "relay-weld":
			e.Kind = RelayWeldClosed
		case "bat":
			e.Kind = BatteryFail
		case "drop":
			e.Kind = PanelDrop
		default:
			return nil, fmt.Errorf("faults: %q: unknown kind %q", part, kindName)
		}
		if e.Kind == PanelDrop {
			if hasUnit {
				return nil, fmt.Errorf("faults: %q: drop takes no unit", part)
			}
		} else {
			if !hasUnit {
				return nil, fmt.Errorf("faults: %q: missing unit", part)
			}
			u, err := strconv.Atoi(unitStr)
			if err != nil || u < 0 {
				return nil, fmt.Errorf("faults: %q: bad unit %q", part, unitStr)
			}
			e.Unit = u
		}
		atStr, magStr, hasMag := strings.Cut(tail, ":")
		at, err := time.ParseDuration(atStr)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("faults: %q: bad time %q", part, atStr)
		}
		e.At = at
		if hasMag {
			m, err := strconv.ParseFloat(magStr, 64)
			if err != nil || m <= 0 {
				return nil, fmt.Errorf("faults: %q: bad magnitude %q", part, magStr)
			}
			if e.Kind == BatteryFail && m >= 1 {
				return nil, fmt.Errorf("faults: %q: capacity loss must be below 1", part)
			}
			e.Magnitude = m
		}
		plan = append(plan, e.withDefaults())
	}
	return plan.Sorted(), nil
}

// CheckUnits returns an error naming the first event whose unit lies
// outside an n-unit bank. The injector skips such an event, which generated
// plans rely on; a plan typed on a command line is checked with this at
// startup instead, so a typo is refused rather than logged as injected.
func (p Plan) CheckUnits(n int) error {
	for _, e := range p {
		if e.Kind != PanelDrop && e.Unit >= n {
			return fmt.Errorf("faults: %v: unit %d is outside the %d-unit bank", e, e.Unit, n)
		}
	}
	return nil
}

// ConnDropper is the slice of the Modbus server the injector needs to flap
// the control panel.
type ConnDropper interface{ DropConnections() }

// Target is the plant surface faults are injected into: the control panel
// whose probes, relays and battery units the unit faults hit, and the
// Modbus server that serves it, which drop events flap. A nil Server makes
// drop a no-op, so a simulation with no served panel and the panel daemon
// share one injector.
type Target struct {
	Panel  *plc.Panel
	Server ConnDropper
}

// Injector walks a plan against a target as the plant clock advances.
type Injector struct {
	plan    Plan
	tgt     Target
	next    int
	applied []Event

	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// NewInjector binds a plan (sorted internally) to a target.
func NewInjector(plan Plan, tgt Target) *Injector {
	sorted := plan.Sorted()
	for i, e := range sorted {
		sorted[i] = e.withDefaults()
	}
	return &Injector{plan: sorted, tgt: tgt, applied: make([]Event, 0, len(sorted))}
}

// Tick injects every event due at or before tod and returns how many landed
// this call. It is allocation-free once all events have fired, so it can sit
// on the simulation hot path.
func (in *Injector) Tick(tod time.Duration) int {
	n := 0
	for in.next < len(in.plan) && in.plan[in.next].At <= tod {
		e := in.plan[in.next]
		in.next++
		in.apply(e)
		in.applied = append(in.applied, e)
		n++
		if in.Logf != nil {
			in.Logf("fault injected: %v", e)
		}
	}
	return n
}

// Applied returns the events injected so far, in order.
func (in *Injector) Applied() []Event { return in.applied }

// Done reports whether the whole plan has been injected.
func (in *Injector) Done() bool { return in.next >= len(in.plan) }

func (in *Injector) apply(e Event) {
	if e.Kind == PanelDrop {
		if in.tgt.Server != nil {
			in.tgt.Server.DropConnections()
		}
		return
	}
	p := in.tgt.Panel
	if e.Unit >= len(p.Probes) {
		return // outside the bank: a no-op, as CheckUnits documents
	}
	switch e.Kind {
	case SensorStick:
		p.Probes[e.Unit].Current.InjectStick()
	case SensorDrift:
		p.Probes[e.Unit].Volt.InjectDrift(e.Magnitude)
	case RelayStuckOpen:
		p.Fabric.Pair(e.Unit).Discharge.Fail(relay.FailStuckOpen)
	case RelayWeldClosed:
		p.Fabric.Pair(e.Unit).Discharge.Fail(relay.FailWeldClosed)
	case BatteryFail:
		p.Bank.Unit(e.Unit).InjectCapacityLoss(e.Magnitude)
	}
}
