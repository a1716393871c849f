package logbook

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndQuery(t *testing.T) {
	b := New(0)
	b.Add(8*time.Hour, Power, "battery#1", "charging relay closed")
	b.Addf(9*time.Hour, Load, "cluster", "target %d VMs", 4)
	b.Add(10*time.Hour, Emergency, "bus", "brownout")
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
	if got := b.Filter(Emergency); len(got) != 1 || got[0].Subject != "bus" {
		t.Errorf("filter = %v", got)
	}
}

func TestCapDropsOldest(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Addf(time.Duration(i)*time.Minute, Info, "x", "event %d", i)
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	if !strings.Contains(evs[0].Detail, "2") {
		t.Errorf("oldest retained = %q, want event 2", evs[0].Detail)
	}
}

func TestWriteText(t *testing.T) {
	b := New(0)
	b.Add(13*time.Hour+5*time.Minute+9*time.Second, Power, "battery#2", "discharge relay closed")
	var buf bytes.Buffer
	if err := b.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "13:05:09") || !strings.Contains(out, "battery#2") {
		t.Errorf("text output %q", out)
	}
}

// TestEventsStableOrderOnEqualTimestamps proves events sharing a
// timestamp come back in arrival order, deterministically.
func TestEventsStableOrderOnEqualTimestamps(t *testing.T) {
	b := New(0)
	at := 9 * time.Hour
	for i := 0; i < 10; i++ {
		b.Addf(at, Power, "battery#1", "action %d", i)
	}
	// An earlier-timestamped event logged late must still sort first.
	b.Add(8*time.Hour, Info, "late", "logged out of order")
	evs := b.Events()
	if evs[0].Subject != "late" {
		t.Fatalf("first event = %+v, want the 8h event", evs[0])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At == evs[i-1].At && evs[i].Seq < evs[i-1].Seq {
			t.Fatalf("events %d/%d out of arrival order: %+v %+v", i-1, i, evs[i-1], evs[i])
		}
	}
	for i := 0; i < 10; i++ {
		want := "action " + string(rune('0'+i))
		if evs[i+1].Detail != want {
			t.Fatalf("event %d = %q, want %q", i+1, evs[i+1].Detail, want)
		}
	}
}

// TestWriteTextEscapesNewlines keeps the text renderer one line per event.
func TestWriteTextEscapesNewlines(t *testing.T) {
	b := New(0)
	b.Add(time.Hour, Emergency, "bus", "first\nsecond\r\nthird")
	var buf bytes.Buffer
	if err := b.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimRight(buf.String(), "\n")
	if strings.Count(out, "\n") != 0 {
		t.Fatalf("event rendered across multiple lines: %q", out)
	}
	if !strings.Contains(out, `first\nsecond\nthird`) {
		t.Errorf("escaped detail missing: %q", out)
	}
}

func TestConcurrentLogging(t *testing.T) {
	b := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Addf(time.Duration(i)*time.Second, Class(g%4), "worker", "n=%d", i)
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 1600 {
		t.Errorf("len = %d, want 1600", b.Len())
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Info: "info", Power: "power", Load: "load", Emergency: "emergency"} {
		if c.String() != want {
			t.Errorf("class %d = %q", c, c.String())
		}
	}
	if Class(9).String() == "" {
		t.Error("unknown class should format")
	}
}

func TestWriteFilesAreDurable(t *testing.T) {
	b := New(0)
	b.Add(time.Hour, Power, "battery#1", "open -> discharging")
	b.Add(2*time.Hour, Emergency, "faultwatch", "unit 3 quarantined")

	dir := t.TempDir()
	txt := filepath.Join(dir, "log.txt")
	if err := b.WriteTextFile(txt); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "quarantined") {
		t.Errorf("%s missing event content", txt)
	}

	// The write path must propagate errors instead of swallowing them:
	// writing into a missing directory fails loudly.
	if err := b.WriteTextFile(filepath.Join(dir, "no-such-dir", "log.txt")); err == nil {
		t.Error("want error writing into missing directory")
	}
}
