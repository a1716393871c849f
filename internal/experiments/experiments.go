// Package experiments regenerates every table and figure of the paper's
// evaluation. Each runner produces a Table — the same rows or series the
// paper reports — computed from the simulation substrate and cost models,
// never from hard-coded result values.
//
// The per-experiment index in DESIGN.md maps each runner to the modules it
// exercises; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one regenerated experiment output.
type Table struct {
	ID     string // "fig17", "table2", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner regenerates one experiment. The context is the campaign context:
// runners pass it into sim.RunCampaign so that (a) cancelling it cancels the
// experiment's simulations and (b) when the runner itself executes as a cell
// of the shared work-stealing pool (RunAllParallel), its inner campaign
// joins that pool instead of spawning its own — idle workers steal the
// fig20/fig21-class sub-simulations that used to serialize behind one
// worker.
type Runner func(ctx context.Context) *Table

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns all registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
//
// The returned Table is freshly built on every call and owned by the caller:
// no runner retains a reference, so mutating or rendering it concurrently
// with other experiment runs is safe. (Runners hold no shared mutable
// package state — the registry is read-only after init, weather/sky RNG is
// per-instance, and table7Inputs-style package data is never written — which
// is what makes RunAllParallel sound.)
func Run(id string) (*Table, error) {
	r, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(context.Background()), nil
}

// RunAll executes every experiment serially in sorted ID order: the
// one-worker pool, which runs every cell inline on the calling goroutine.
// The tables are caller-owned, like Run's. A panicking runner panics here
// too, with the experiment ID in the message.
func RunAll() []*Table {
	tables, err := RunAllParallel(context.Background(), 1)
	if err != nil {
		panic(err)
	}
	return tables
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%+.0f%%", v*100) }
