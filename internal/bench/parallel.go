package bench

import "metalsvm/internal/bench/runner"

// pool fans the harnesses' independent simulations across host workers.
// Every simulation is a pure function of its configuration and every task
// writes to its own pre-assigned result slot, so the numbers a sweep
// returns are bit-identical at any parallelism (the equivalence tests
// assert this). Default: the host's available parallelism.
var pool = runner.New(0)

// SetParallelism bounds the number of simulations run concurrently by the
// sweep functions (Fig6, Fig7, Fig9, Table1Both, the ablations). n = 1
// forces serial execution in index order; n <= 0 restores the default
// (GOMAXPROCS).
func SetParallelism(n int) { pool = runner.New(n) }

// runTasks executes independent closures across the pool. Each closure
// must write its result into storage owned by its own index.
func runTasks(tasks []func()) {
	pool.Run(len(tasks), func(i int) { tasks[i]() })
}
