package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// renderAll renders a table batch the way cmd/insure-bench does, giving a
// byte-exact artefact to compare engines with.
func renderAll(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range tables {
		if tbl == nil {
			t.Fatal("nil table in batch")
		}
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunAllParallelMatchesRunAll is the determinism oracle for the parallel
// engine: the rendered output of the GOMAXPROCS-worker pool must be
// byte-identical to the one-worker (serial) pool's, for every registered
// experiment.
func TestRunAllParallelMatchesRunAll(t *testing.T) {
	if raceEnabled {
		// Both engines run the full 30-experiment evaluation; doing that
		// twice under the race detector pushes the package past its test
		// timeout. Race coverage of the pool comes from the cheaper tests
		// and the sim campaign tests.
		t.Skip("full double evaluation is too slow under -race")
	}
	serial := renderAll(t, RunAll())

	tables, err := RunAllParallel(context.Background(), 0)
	if err != nil {
		t.Fatalf("RunAllParallel: %v", err)
	}
	parallel := renderAll(t, tables)

	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel output differs from serial output\nserial %d bytes, parallel %d bytes",
			len(serial), len(parallel))
	}
}

// TestRunAllParallelPanicPropagation checks a panicking runner surfaces as
// an error naming the experiment instead of crashing the process. The probe
// runner's ID sorts first so, with one worker, the pool fails fast and the
// real experiments are skipped via context cancellation.
func TestRunAllParallelPanicPropagation(t *testing.T) {
	const id = "_panic-probe"
	register(id, func(context.Context) *Table { panic("probe explosion") })
	defer delete(registry, id)

	_, err := RunAllParallel(context.Background(), 1)
	if err == nil {
		t.Fatal("want error from panicking runner")
	}
	for _, want := range []string{id, "probe explosion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should contain %q", err, want)
		}
	}
}

func TestRunAllParallelCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAllParallel(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
