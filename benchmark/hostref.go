package main

import (
	"runtime"
	"sort"
	"sync"
)

// The host of record drifts: over seconds to minutes its speed for the
// same work wanders by a quarter or more, while the guest sees no steal
// time. The parent therefore times a fixed kernel that is not the program
// under test just before and just after every rep, in its own process so
// the rep's peak RSS stays the program's, and scales the rep's wall times
// by refNominal over the kernel's mean time: they are reported at the host
// of record's nominal speed.

// refNominal is hostRef's typical time on the host of record, in seconds.
const refNominal = 0.085

// hostRef runs one copy of a fixed kernel on every CPU at once and returns
// how long they took in seconds. Each copy fills 512 Ki ints from a
// xorshift stream and sorts them. A full collection first keeps the
// garbage of whatever ran before from being collected during the kernel.
func hostRef() float64 {
	n := runtime.GOMAXPROCS(0)
	bufs := make([][]int, n)
	for i := range bufs {
		bufs[i] = make([]int, 1<<19)
	}
	runtime.GC()
	var wg sync.WaitGroup
	t := clock()
	for _, buf := range bufs {
		wg.Add(1)
		go func(buf []int) {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = int(x >> 1)
			}
			sort.Ints(buf)
		}(buf)
	}
	wg.Wait()
	return float64(clock()-t) / 1e9
}
