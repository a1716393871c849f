package wan

import (
	"math"
	"testing"
	"time"
)

func TestChunkFateIsPureAndSeeded(t *testing.T) {
	n, err := New(Config{Seed: 42, Sites: 3, DropRate: 0.3, CorruptRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Purity: the same coordinates always give the same fate, in any
	// query order — this is what kill/resume leans on.
	var first []Fate
	for chunk := 0; chunk < 64; chunk++ {
		first = append(first, n.ChunkFate(0, 1, 7, chunk, 0))
	}
	for chunk := 63; chunk >= 0; chunk-- {
		if got := n.ChunkFate(0, 1, 7, chunk, 0); got != first[chunk] {
			t.Fatalf("chunk %d fate changed on re-query: %v then %v", chunk, first[chunk], got)
		}
	}
	// A different seed decorrelates the fate sequence.
	n2, err := New(Config{Seed: 43, Sites: 3, DropRate: 0.3, CorruptRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for chunk := 0; chunk < 64; chunk++ {
		if n2.ChunkFate(0, 1, 7, chunk, 0) == first[chunk] {
			same++
		}
	}
	if same == 64 {
		t.Fatal("seed change did not move any chunk fate")
	}
}

func TestChunkFateRatesConverge(t *testing.T) {
	n, err := New(Config{Seed: 1, Sites: 2, DropRate: 0.30, CorruptRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	var dropped, corrupted int
	for i := 0; i < trials; i++ {
		switch n.ChunkFate(0, 1, uint64(i), i%17, i%3) {
		case Dropped:
			dropped++
		case Corrupted:
			corrupted++
		}
	}
	dropFrac := float64(dropped) / trials
	corruptFrac := float64(corrupted) / trials
	if dropFrac < 0.27 || dropFrac > 0.33 {
		t.Fatalf("drop rate %v far from configured 0.30", dropFrac)
	}
	if corruptFrac < 0.035 || corruptFrac > 0.065 {
		t.Fatalf("corrupt rate %v far from configured 0.05", corruptFrac)
	}
}

// TestNewRejectsNonFiniteRates: a NaN or infinite loss rate must not
// slip past New's range checks and run a campaign with a loss-free link.
func TestNewRejectsNonFiniteRates(t *testing.T) {
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5} {
		if _, err := New(Config{Sites: 2, DropRate: r}); err == nil {
			t.Errorf("drop rate %v accepted", r)
		}
		if _, err := New(Config{Sites: 2, CorruptRate: r}); err == nil {
			t.Errorf("corrupt rate %v accepted", r)
		}
	}
}

func TestPartitionWindows(t *testing.T) {
	n, err := New(Config{
		Seed: 1, Sites: 3,
		Outages: []Outage{{Site: 1, Day: 0, From: 6 * time.Hour, To: 12 * time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Partitioned(1, 0, 5*time.Hour) {
		t.Fatal("partitioned before window opens")
	}
	if !n.Partitioned(1, 0, 6*time.Hour) {
		t.Fatal("not partitioned at window start")
	}
	if n.Partitioned(1, 0, 12*time.Hour) {
		t.Fatal("still partitioned at half-open window end")
	}
	if n.Partitioned(1, 1, 8*time.Hour) {
		t.Fatal("window leaked into the next day")
	}
	// Reachability needs both endpoints up; bandwidth is zero across a
	// partition.
	if n.Reachable(0, 1, 0, 8*time.Hour) || n.Reachable(1, 2, 0, 8*time.Hour) {
		t.Fatal("partitioned site reachable")
	}
	if !n.Reachable(0, 2, 0, 8*time.Hour) {
		t.Fatal("two healthy sites unreachable")
	}
	if got := n.EffectiveMbps(0, 1, 0, 8*time.Hour); got != 0 {
		t.Fatalf("bandwidth across partition = %v, want 0", got)
	}
	if got := n.EffectiveMbps(0, 1, 1, 3*time.Hour); got != 100 {
		t.Fatalf("healthy bandwidth = %v, want nominal 100", got)
	}
}

func TestPlanOutagesDeterministicAndBounded(t *testing.T) {
	const seed = 99
	a := PlanOutages(seed, 3, 4, 2, 1*time.Hour, 23*time.Hour, 30*time.Minute, 6*time.Hour)
	b := PlanOutages(seed, 3, 4, 2, 1*time.Hour, 23*time.Hour, 30*time.Minute, 6*time.Hour)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d windows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d differs across identical plans: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != 6 {
		t.Fatalf("planned %d windows, want 3 days x 2", len(a))
	}
	for _, o := range a {
		if o.Site < 0 || o.Site >= 4 {
			t.Fatalf("window %v outside fleet", o)
		}
		if o.From < 1*time.Hour || o.To > 23*time.Hour || o.To <= o.From {
			t.Fatalf("window %v outside bounds", o)
		}
		if o.To-o.From > 6*time.Hour {
			t.Fatalf("window %v longer than max", o)
		}
	}
	if c := PlanOutages(seed+1, 3, 4, 2, 1*time.Hour, 23*time.Hour, 30*time.Minute, 6*time.Hour); len(c) == len(a) {
		varies := false
		for i := range c {
			if c[i] != a[i] {
				varies = true
				break
			}
		}
		if !varies {
			t.Fatal("seed change did not move the plan")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sites: 0}); err == nil {
		t.Fatal("accepted zero sites")
	}
	if _, err := New(Config{Sites: 2, DropRate: 1.0}); err == nil {
		t.Fatal("accepted drop rate 1.0")
	}
	if _, err := New(Config{Sites: 2, DropRate: 0.6, CorruptRate: 0.5}); err == nil {
		t.Fatal("accepted drop+corrupt >= 1")
	}
	if _, err := New(Config{Sites: 2, Outages: []Outage{{Site: 5, Day: 0, From: 0, To: time.Hour}}}); err == nil {
		t.Fatal("accepted outage for out-of-range site")
	}
	if _, err := New(Config{Sites: 2, Outages: []Outage{{Site: 0, Day: 0, From: time.Hour, To: time.Hour}}}); err == nil {
		t.Fatal("accepted empty window")
	}
}
