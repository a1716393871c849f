package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the campaign execution engine: a work-stealing scheduler
// over "cells" (independent units of work, typically one full-day plant
// simulation each) with deterministic positional results.
//
// Design notes (see DESIGN.md "Batch engine"):
//
//   - Cells are coarse — milliseconds to seconds each — so the scheduler
//     optimises for correct dynamic balancing, not dispatch latency. All
//     queues live under one mutex; the lock is touched twice per cell,
//     which is noise at this granularity.
//   - Each worker owns a deque: it pushes and pops its own work LIFO and
//     steals from the FRONT of other workers' deques FIFO. A campaign that
//     fans out inside one experiment (the fig20/fig21 shape, which used to
//     serialize behind a single worker under experiment-granularity
//     sharding) is therefore picked apart by idle workers automatically.
//   - The caller participates as worker 0. With workers == 1 the batch runs
//     fully inline on the caller's goroutine — no goroutines are spawned,
//     so the serial path has zero scheduling overhead.
//   - Joins are help-first: a cell that submits a nested batch (an
//     experiment whose body calls RunCampaign) executes cells itself while
//     waiting — its own first, then stolen ones — so nesting can never
//     deadlock the pool and never idles the submitting worker.
//   - Determinism: every cell writes only its own positional slot, the
//     first error in INPUT order wins, and a failure stops only the cells
//     after it in input order, so every cell before the first failure runs
//     whatever the schedule. A cancelled batch records the context error
//     for every cell that had not started. Scheduling order affects
//     wall-clock only, never results.

// poolCtxKey carries the (pool, worker) identity of the goroutine executing
// a cell, so nested RunCells calls join the enclosing pool instead of
// spawning their own.
type poolCtxKey struct{}

type poolRef struct {
	p *pool
	w int
}

// CellFunc is one unit of campaign work: cell i of a batch, given a
// batch-scoped context and the executing worker's private arena.
type CellFunc func(ctx context.Context, i int, a *Arena) error

// pool is a set of workers executing cells from per-worker deques.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]cell
	arenas []*Arena
	stop   bool
	wg     sync.WaitGroup
}

// batch is one RunCells invocation: n cells sharing a cancellable context
// and a positional error slate.
type batch struct {
	ctx       context.Context
	fn        CellFunc
	errs      []error
	remaining int // guarded by pool.mu
	// failAt is the lowest index of a failed cell, n while none has failed.
	// Cells after it that have not started record the cancellation instead
	// of running.
	failAt atomic.Int64
}

type cell struct {
	b   *batch
	idx int
}

// RunCells executes fn(i) for i in [0, n) on a work-stealing pool and
// returns the first error in input order, or nil. workers <= 0 means
// GOMAXPROCS; the caller always participates as a worker, and workers == 1
// runs everything inline with no goroutines.
//
// If ctx already carries a pool (this call is nested inside a cell), the
// cells join the enclosing pool — the submitting worker helps execute them
// while waiting, and idle siblings steal them — and the workers argument is
// ignored.
//
// A cell error (or panic, converted to an error with its stack) stops the
// cells after it in input order: those that have not started record
// context.Canceled instead of running, while in-flight cells finish
// normally. Cells before it still run, so the error returned is the same
// whatever the schedule. RunCells returns only after every cell has either
// run or been marked cancelled, so no work is left dangling.
func RunCells(ctx context.Context, workers, n int, fn CellFunc) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if pr, ok := ctx.Value(poolCtxKey{}).(poolRef); ok {
		return pr.p.runBatch(ctx, pr.w, n, fn)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	p := newPool(workers)
	defer p.shutdown()
	return p.runBatch(ctx, 0, n, fn)
}

// newPool builds a pool with the given worker count. Worker 0 is the
// caller; workers 1..n-1 get goroutines.
func newPool(workers int) *pool {
	p := &pool{
		deques: make([][]cell, workers),
		arenas: make([]*Arena, workers),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.arenas {
		p.arenas[i] = NewArena()
	}
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// shutdown stops the worker goroutines and waits for them to exit. It must
// only be called with no batch outstanding.
func (p *pool) shutdown() {
	p.mu.Lock()
	p.stop = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *pool) workerLoop(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if c, ok := p.grab(w); ok {
			p.mu.Unlock()
			p.exec(w, c)
			p.mu.Lock()
			continue
		}
		if p.stop {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// grab takes the next cell for worker w: its own deque back-to-front
// (LIFO, cache-warm), else the front of another worker's deque (FIFO — the
// oldest work, which its owner is furthest from revisiting). Callers hold
// p.mu.
func (p *pool) grab(w int) (cell, bool) {
	if d := p.deques[w]; len(d) > 0 {
		c := d[len(d)-1]
		d[len(d)-1] = cell{}
		p.deques[w] = d[:len(d)-1]
		return c, true
	}
	for off := 1; off < len(p.deques); off++ {
		v := (w + off) % len(p.deques)
		if d := p.deques[v]; len(d) > 0 {
			c := d[0]
			p.deques[v] = d[1:]
			return c, true
		}
	}
	return cell{}, false
}

// exec runs one cell on worker w and retires it against its batch.
func (p *pool) exec(w int, c cell) {
	err := p.runCell(w, c.b, c.idx)
	if err != nil {
		c.b.fail(c.idx)
	}
	p.mu.Lock()
	c.b.errs[c.idx] = err
	c.b.remaining--
	if c.b.remaining == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// fail lowers b.failAt to i if no earlier cell has failed.
func (b *batch) fail(i int) {
	for {
		at := b.failAt.Load()
		if int64(i) >= at || b.failAt.CompareAndSwap(at, int64(i)) {
			return
		}
	}
}

// runCell executes cell i of b on worker w, converting a panic into an
// error carrying the stack.
func (p *pool) runCell(w int, b *batch, i int) (err error) {
	if cerr := b.ctx.Err(); cerr != nil {
		// Cancelled before starting: record the discard deterministically
		// without running the cell.
		return cerr
	}
	if int64(i) > b.failAt.Load() {
		// An earlier cell failed: its error is the batch's, whatever this
		// one would have returned.
		return context.Canceled
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: campaign cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	cellCtx := context.WithValue(b.ctx, poolCtxKey{}, poolRef{p: p, w: w})
	return b.fn(cellCtx, i, p.arenas[w])
}

// runBatch submits n cells from worker w and helps execute until the batch
// drains, then reports the first error in input order.
func (p *pool) runBatch(ctx context.Context, w, n int, fn CellFunc) error {
	b := &batch{ctx: ctx, fn: fn, errs: make([]error, n), remaining: n}
	b.failAt.Store(int64(n))

	p.mu.Lock()
	d := p.deques[w]
	for i := n - 1; i >= 0; i-- { // reversed: LIFO pop yields input order
		d = append(d, cell{b: b, idx: i})
	}
	p.deques[w] = d
	p.cond.Broadcast()

	// Help-first join: run our own cells, steal siblings' — anything to
	// keep making progress — and sleep only when every remaining cell of
	// this batch is in flight on some other worker.
	for b.remaining > 0 {
		if c, ok := p.grab(w); ok {
			p.mu.Unlock()
			p.exec(w, c)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	p.mu.Unlock()

	// Report the root cause, not its fallout: cells a failure or a
	// cancelled context prevented from starting record cancellation
	// markers, which lose to real errors; among real errors, first input
	// index wins. Every cell before the first failure ran, so that is the
	// same cell under any schedule.
	var firstCancel error
	for _, err := range b.errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	return firstCancel
}
