package laplace

import (
	"metalsvm/internal/cpu"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// SVMOptions tunes the shared-memory variant.
type SVMOptions struct {
	// SkipConsistency omits the SVM barrier's flush/invalidate actions and
	// uses a raw kernel barrier instead. The run then computes on stale
	// caches — used by tests to prove that the consistency machinery is
	// functionally load-bearing, and by the ablation bench.
	SkipConsistency bool
}

// SVMApp is one shared-memory Laplace run. Create it host-side, call Main
// from every kernel, then read Result after the engine finishes.
type SVMApp struct {
	p    Params
	opts SVMOptions

	// The first rank to arrive sizes the shared state; every rank then
	// writes only its own slot and its own rows of the grid.
	grid  []float64 // final grid, assembled by the ranks
	ranks []rankResult
}

// rankResult is what one rank reports when its Main returns.
type rankResult struct {
	elapsed   sim.Duration
	faults    uint64
	finalBase uint32 // the array holding the final iterate
	done      bool
}

// NewSVM prepares a run for n kernels.
func NewSVM(p Params, opts SVMOptions) *SVMApp {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &SVMApp{p: p, opts: opts}
}

// cellAddr returns the virtual address of cell (r, c) in the array at base.
func (a *SVMApp) cellAddr(base uint32, r, c int) uint32 {
	return base + uint32(r*a.p.Cols+c)*8
}

// Main is the per-kernel body.
func (a *SVMApp) Main(h *svm.Handle) {
	p := a.p
	k := h.Kernel()
	c := k.Core()
	n := len(h.Workers())
	rank := h.Rank()
	if a.grid == nil {
		a.grid = make([]float64, p.Cells())
		a.ranks = make([]rankResult, n)
	}

	// Collective allocation of the two arrays; all kernels receive the
	// same bases.
	oldBase := h.Alloc(p.ArrayBytes())
	newBase := h.Alloc(p.ArrayBytes())

	lo, hi := p.Partition(rank, n)

	// First-touch initialization with the computation's access pattern:
	// every rank initializes its own rows (in both arrays), so frames land
	// on the rank's memory controller. Rank 0 owns the top boundary row,
	// the last rank the bottom one.
	initRow := func(base uint32, r int) {
		v := 0.0
		if r == 0 {
			v = p.TopTemp
		}
		for col := 0; col < p.Cols; col++ {
			c.StoreF64(a.cellAddr(base, r, col), v)
		}
	}
	for r := lo; r < hi; r++ {
		initRow(oldBase, r)
		initRow(newBase, r)
	}
	if rank == 0 {
		initRow(oldBase, 0)
		initRow(newBase, 0)
	}
	if rank == n-1 {
		initRow(oldBase, p.Rows-1)
		initRow(newBase, p.Rows-1)
	}
	a.barrier(h)

	start := c.Proc().LocalTime()
	old, niu := oldBase, newBase
	for it := 0; it < p.Iters; it++ {
		a.sweep(c, old, niu, lo, hi)
		a.barrier(h) // synchronous iterations: everyone sees the new array
		old, niu = niu, old
	}
	elapsed := c.Proc().LocalTime() - start

	// Result extraction (outside the timed section): each rank copies its
	// rows into the host-side grid through the core's load path (which
	// observes caches and, under the strong model, takes the ownership
	// faults any reader would). The checksum is then computed serially in
	// the exact order the reference uses, so it is bit-comparable across
	// variants and core counts.
	sumLo, sumHi := lo, hi
	if rank == 0 {
		sumLo = 0
	}
	if rank == n-1 {
		sumHi = p.Rows
	}
	for r := sumLo; r < sumHi; r++ {
		for col := 0; col < p.Cols; col++ {
			a.grid[r*p.Cols+col] = c.LoadF64(a.cellAddr(old, r, col))
		}
	}
	a.ranks[rank] = rankResult{elapsed: elapsed, faults: h.Stats().Faults, finalBase: old, done: true}
	h.KernelBarrier()
}

// AuditChecksum re-reads the entire final grid through one surviving core's
// load path and checksums it in reference order. Under the strong model this
// takes an ownership fault for every page still owned elsewhere — including
// pages whose owner has crash-halted, which forces the directory's
// revoke-and-reassign recovery. Call it from one rank after its Main.
func (a *SVMApp) AuditChecksum(h *svm.Handle) float64 {
	p := a.p
	c := h.Kernel().Core()
	finalBase := a.ranks[h.Rank()].finalBase
	vals := make([]float64, p.Cells())
	for r := 0; r < p.Rows; r++ {
		for col := 0; col < p.Cols; col++ {
			vals[r*p.Cols+col] = c.LoadF64(a.cellAddr(finalBase, r, col))
		}
	}
	return ChecksumGrid(vals)
}

// sweep updates rows [lo, hi) of niu from old.
func (a *SVMApp) sweep(c *cpu.Core, old, niu uint32, lo, hi int) {
	p := a.p
	for r := lo; r < hi; r++ {
		up := a.cellAddr(old, r-1, 1)
		down := a.cellAddr(old, r+1, 1)
		left := a.cellAddr(old, r, 0)
		right := a.cellAddr(old, r, 2)
		dst := a.cellAddr(niu, r, 1)
		for col := 1; col < p.Cols-1; col++ {
			v := 0.25 * (c.LoadF64(up) + c.LoadF64(down) + c.LoadF64(left) + c.LoadF64(right))
			c.StoreF64(dst, v)
			up += 8
			down += 8
			left += 8
			right += 8
			dst += 8
		}
	}
}

func (a *SVMApp) barrier(h *svm.Handle) {
	if a.opts.SkipConsistency {
		h.KernelBarrier()
		return
	}
	h.Barrier()
}

// Result combines the per-rank outcomes; valid after the engine has run.
func (a *SVMApp) Result() Result {
	var maxEl sim.Duration
	var faults uint64
	for _, r := range a.ranks {
		if !r.done {
			panic("laplace: Result before all kernels finished")
		}
		if r.elapsed > maxEl {
			maxEl = r.elapsed
		}
		faults += r.faults
	}
	return Result{Elapsed: maxEl, Checksum: ChecksumGrid(a.grid), Faults: faults}
}
