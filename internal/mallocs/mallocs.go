// Package mallocs counts heap allocations at a chosen GOMAXPROCS, for
// allocation tests of code that hands work to other goroutines:
// testing.AllocsPerRun pins GOMAXPROCS to 1, where such code never
// leaves the calling goroutine.
package mallocs

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
)

// At counts heap allocations across runs calls of fn at GOMAXPROCS
// procs, with the collector off so sync.Pool keeps what it holds.
// Before counting it stocks the runtime's wait-queue entries
// (stockWaitQueues) and the per-P pools of the code under test, by
// running shared on four goroutines at once, warm/4 calls each; then fn
// runs warm times serially. shared must be safe for concurrent use; fn
// need not be, and may be shared itself.
//
// Some caches still fill lazily, once, when a goroutine first lands on
// a P that lacks one: a new OS thread's runtime records, a sync.Pool's
// per-P chain. So At counts up to three windows of runs calls and
// returns the smallest count; an allocation fn makes on every call, or
// on every few calls, shows in each window.
func At(procs, warm, runs int, shared, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stockWaitQueues(256)
	var callers sync.WaitGroup
	for range 4 {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for range warm / 4 {
				shared()
			}
		}()
	}
	callers.Wait()
	for range warm {
		fn()
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		if least = min(least, after.Mallocs-before.Mallocs); least == 0 {
			break
		}
	}
	return least
}

// stockWaitQueues parks n goroutines on one channel and wakes them, so
// the runtime's per-P caches of wait-queue entries hold about n. A
// goroutine that parks (a worker on its channel, a caller waiting for
// its workers) takes an entry from the cache of the P it parks on and
// returns it to the cache of the P it wakes on; with few entries in
// circulation, one P's cache runs dry now and then and the runtime
// allocates one more, on no call's account.
func stockWaitQueues(n int) {
	var started, exited sync.WaitGroup
	gate := make(chan struct{})
	started.Add(n)
	exited.Add(n)
	for range n {
		go func() {
			defer exited.Done()
			started.Done()
			<-gate
		}()
	}
	started.Wait()
	runtime.Gosched()
	close(gate)
	exited.Wait()
}
