// Package runner fans independent, deterministic simulations across host
// worker goroutines. Every experiment the benchmark harness runs (one
// Figure 6 distance, one Figure 9 variant at one core count, one ablation
// arm, one -check cell) is a pure function of its configuration — the
// engine inside each simulation still runs exactly one goroutine at a time
// — so whole simulations can execute concurrently on the host without any
// shared state, and the results are bit-identical to a serial run as long
// as they are written to index-addressed slots rather than appended in
// completion order.
//
// This package lives on the HOST side of the simulator boundary and is
// annotated accordingly: the //metalsvm:host-parallel directive below tells
// the simdet analyzer that go statements are deliberate here. The
// annotation is itself rejected inside the core simulation packages, so it
// cannot be used to smuggle host concurrency into the model.
//
//metalsvm:host-parallel
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of simulations in flight at once.
type Pool struct {
	workers int
}

// New returns a pool running at most workers simulations concurrently.
// workers <= 0 selects GOMAXPROCS, the host's available parallelism.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Run invokes fn(i) for every i in [0, n), spreading calls across the
// pool's workers. Each fn(i) must be independent of the others; callers
// keep results deterministic by writing fn(i)'s output to slot i of a
// pre-sized slice. Run returns once every call finished. If any fn
// panicked, Run re-panics with the first captured value after all workers
// have drained, so a failing experiment surfaces exactly as it would
// serially.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		panicVal any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}
