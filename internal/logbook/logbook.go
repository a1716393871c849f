// Package logbook records the operational events of an InSURE deployment —
// the "various log data" the prototype's management platform collects
// automatically (§5) and that §6.2 analyses (power-control actions, server
// on/off cycles, VM operations, battery mode changes, emergencies).
//
// Events are typed, timestamped with simulation time, and can be rendered
// as text for offline analysis.
package logbook

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class categorises an event.
type Class int

const (
	// Info is general operational narration.
	Info Class = iota
	// Power covers supply-side actions: relay switching, charge batches,
	// generator starts/stops.
	Power
	// Load covers demand-side actions: VM reallocation, duty changes,
	// server power cycles.
	Load
	// Emergency covers brownouts, protection trips, forced shutdowns.
	Emergency
)

func (c Class) String() string {
	switch c {
	case Info:
		return "info"
	case Power:
		return "power"
	case Load:
		return "load"
	case Emergency:
		return "emergency"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Event is one logged occurrence.
type Event struct {
	At      time.Duration // simulation time-of-day
	Class   Class
	Subject string // component, e.g. "battery#3", "cluster", "genset"
	Detail  string
	// Seq is the book-wide arrival sequence number, assigned at Add. It
	// breaks ties between events sharing a timestamp (a control pass logs
	// several actions at the same sim-time), making rendered output
	// deterministic across runs and correlatable with telemetry counters
	// stamped by the same sim clock.
	Seq uint64
}

// Book is an in-memory event log. It is safe for concurrent use (the PLC
// scan loop and the coordinator log from different goroutines in the
// daemon).
type Book struct {
	mu     sync.Mutex
	events []Event
	seq    uint64
	// Cap bounds memory for long runs; 0 means unbounded. When full, the
	// oldest events are dropped.
	Cap int
}

// New returns an empty logbook bounded to cap events (0 = unbounded).
func New(cap int) *Book { return &Book{Cap: cap} }

// Add records an event.
func (b *Book) Add(at time.Duration, class Class, subject, detail string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	b.events = append(b.events, Event{At: at, Class: class, Subject: subject, Detail: detail, Seq: b.seq})
	if b.Cap > 0 && len(b.events) > b.Cap {
		drop := len(b.events) - b.Cap
		b.events = append(b.events[:0], b.events[drop:]...)
	}
}

// Addf records a formatted event.
func (b *Book) Addf(at time.Duration, class Class, subject, format string, args ...any) {
	b.Add(at, class, subject, fmt.Sprintf(format, args...))
}

// Len returns the number of retained events.
func (b *Book) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a copy of the retained events sorted by timestamp, with
// the arrival sequence breaking ties. The sort is stable by construction
// (At, then Seq — a total order), so rendered output is deterministic
// across runs even when several goroutines logged at the same sim-time.
func (b *Book) Events() []Event {
	b.mu.Lock()
	out := append([]Event(nil), b.events...)
	b.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Filter returns the events of one class.
func (b *Book) Filter(class Class) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Class == class {
			out = append(out, e)
		}
	}
	return out
}

// escapeLine flattens control characters so an event can never break the
// one-line-per-event invariant of the text renderer.
func escapeLine(s string) string {
	if !strings.ContainsAny(s, "\n\r") {
		return s
	}
	s = strings.ReplaceAll(s, "\r\n", `\n`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, "\r", `\n`)
}

// WriteText renders the log as human-readable lines, one event per line
// (embedded newlines in details are escaped).
func (b *Book) WriteText(w io.Writer) error {
	for _, e := range b.Events() {
		_, err := fmt.Fprintf(w, "%02d:%02d:%02d %-9s %-12s %s\n",
			int(e.At.Hours()), int(e.At.Minutes())%60, int(e.At.Seconds())%60,
			e.Class, escapeLine(e.Subject), escapeLine(e.Detail))
		if err != nil {
			return err
		}
	}
	return nil
}
