package laplace

import (
	"encoding/binary"

	"metalsvm/internal/cpu"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/rcce"
	"metalsvm/internal/sim"
)

// BaselineApp is the message-passing variant the paper compares against:
// per-rank private blocks with halo rows, non-blocking iRCCE row exchange
// after every iteration, running on bare cores with L1+L2 caching of
// private memory ("under Linux"). No SVM, no MPBT pages, no write-combine
// buffer — exactly the configuration whose write path the paper calls
// "like write accesses to an uncachable memory region".
type BaselineApp struct {
	p    Params
	comm *rcce.Comm

	grid    []float64
	elapsed []sim.Duration
	arrived int
}

// privateHeapBase is where the arrays live in each core's private virtual
// space (clear of the kernel image area by convention).
const privateHeapBase uint32 = 1 << 20

// BaselineBytes returns how far into its private memory the busiest rank
// of the baseline over ranks cores reaches: its two blocks above
// privateHeapBase.
func (p Params) BaselineBytes(ranks int) uint64 {
	lo, hi := p.Partition(0, ranks) // rank 0 holds the most rows
	return uint64(privateHeapBase) + 2*p.blockBytes(hi-lo)
}

// blockBytes is the size of a rank's array block of rows interior rows
// plus two halo rows, in whole pages.
func (p Params) blockBytes(rows int) uint64 {
	const page = pgtable.PageSize
	return (uint64(rows+2)*uint64(p.RowBytes()) + page - 1) &^ (page - 1)
}

// NewBaseline prepares a run over the communicator's ranks.
func NewBaseline(p Params, comm *rcce.Comm) *BaselineApp {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &BaselineApp{
		p:       p,
		comm:    comm,
		grid:    make([]float64, p.Cells()),
		elapsed: make([]sim.Duration, comm.Size()),
	}
}

// Main is the per-rank body (run it on the rank's core).
func (a *BaselineApp) Main(rank int, c *cpu.Core) {
	p := a.p
	n := a.comm.Size()
	lo, hi := p.Partition(rank, n)
	myRows := hi - lo
	blockRows := myRows + 2 // plus halo rows
	rowB := p.RowBytes()
	blockBytes := uint32(p.blockBytes(myRows))

	oldBase := privateHeapBase
	newBase := privateHeapBase + blockBytes
	cell := func(base uint32, localRow, col int) uint32 {
		return base + uint32(localRow*p.Cols+col)*8
	}

	// Initialize: zeros everywhere, boundary temperature on the global top
	// row (local halo row 0 of rank 0).
	for lr := 0; lr < blockRows; lr++ {
		global := lo - 1 + lr
		v := 0.0
		if global == 0 {
			v = p.TopTemp
		}
		for col := 0; col < p.Cols; col++ {
			c.StoreF64(cell(oldBase, lr, col), v)
			c.StoreF64(cell(newBase, lr, col), v)
		}
	}
	a.comm.Barrier(rank)

	start := c.Proc().LocalTime()
	old, niu := oldBase, newBase
	for it := 0; it < p.Iters; it++ {
		// Compute local rows 1..myRows from old into niu.
		for lr := 1; lr <= myRows; lr++ {
			up := cell(old, lr-1, 1)
			down := cell(old, lr+1, 1)
			left := cell(old, lr, 0)
			right := cell(old, lr, 2)
			dst := cell(niu, lr, 1)
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
		old, niu = niu, old

		// Non-blocking halo exchange of the freshly computed edge rows.
		var reqs []*rcce.Request
		if rank > 0 {
			up := make([]byte, rowB)
			a.readRow(c, cell(old, 1, 0), up)
			reqs = append(reqs, a.comm.Isend(rank, up, rank-1))
		}
		if rank < n-1 {
			down := make([]byte, rowB)
			a.readRow(c, cell(old, myRows, 0), down)
			reqs = append(reqs, a.comm.Isend(rank, down, rank+1))
		}
		var haloTop, haloBot []byte
		if rank > 0 {
			haloTop = make([]byte, rowB)
			reqs = append(reqs, a.comm.Irecv(rank, haloTop, rank-1))
		}
		if rank < n-1 {
			haloBot = make([]byte, rowB)
			reqs = append(reqs, a.comm.Irecv(rank, haloBot, rank+1))
		}
		if len(reqs) > 0 {
			a.comm.Wait(rank, reqs...)
		}
		if haloTop != nil {
			a.writeRow(c, cell(old, 0, 0), haloTop)
		}
		if haloBot != nil {
			a.writeRow(c, cell(old, myRows+1, 0), haloBot)
		}
	}
	a.elapsed[rank] = c.Proc().LocalTime() - start

	// Result extraction (untimed): copy this rank's rows — plus the global
	// boundary rows at the edge ranks — into the host-side grid through the
	// core's load path, so the final checksum is computed serially in the
	// reference's exact order.
	sumLo, sumHi := 1, myRows+1
	if rank == 0 {
		sumLo = 0
	}
	if rank == n-1 {
		sumHi = myRows + 2
	}
	for lr := sumLo; lr < sumHi; lr++ {
		global := lo - 1 + lr
		for col := 0; col < p.Cols; col++ {
			a.grid[global*p.Cols+col] = c.LoadF64(cell(old, lr, col))
		}
	}
	a.arrived++
	a.comm.Barrier(rank)
}

// readRow loads one row from simulated memory into a host buffer, charging
// the core's load path.
func (a *BaselineApp) readRow(c *cpu.Core, addr uint32, buf []byte) {
	for col := 0; col < a.p.Cols; col++ {
		binary.LittleEndian.PutUint64(buf[col*8:], c.Load64(addr+uint32(col)*8))
	}
}

// writeRow stores a received row into simulated memory through the core's
// (write-through) store path.
func (a *BaselineApp) writeRow(c *cpu.Core, addr uint32, buf []byte) {
	for col := 0; col < a.p.Cols; col++ {
		c.Store64(addr+uint32(col)*8, binary.LittleEndian.Uint64(buf[col*8:]))
	}
}

// Result combines per-rank outcomes; valid after the engine has run.
func (a *BaselineApp) Result() Result {
	if a.arrived != a.comm.Size() {
		panic("laplace: Result before all ranks finished")
	}
	var maxEl sim.Duration
	for _, e := range a.elapsed {
		if e > maxEl {
			maxEl = e
		}
	}
	return Result{Elapsed: maxEl, Checksum: ChecksumGrid(a.grid)}
}
