// Package laplace implements the paper's application benchmark (Section
// 7.2.2): the two-dimensional Laplace heat-distribution problem solved with
// Jacobi over-relaxation, in three variants:
//
//   - Reference: a plain Go implementation used as ground truth;
//   - SVM: the shared-memory version running on MetalSVM (both consistency
//     models), two shared arrays swapped after every iteration with a
//     barrier between iterations;
//   - Baseline: the message-passing version over iRCCE ("under Linux"),
//     with private per-rank blocks and non-blocking halo-row exchange.
//
// The default geometry matches the paper: 1024 x 512 doubles (one row =
// 4 KiB = one page) with fixed boundary temperatures, iterated a fixed
// number of times. The parallel variants compute bit-identical cell values
// to the reference (Jacobi has no cross-cell reduction), so the checksum
// comparison is exact, not approximate — a strong functional check that the
// software-managed coherence actually works.
package laplace

import (
	"fmt"

	"metalsvm/internal/cpu"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/sim"
)

// Params describes one problem instance.
type Params struct {
	// Rows and Cols of the grid, including the boundary (paper: 1024x512).
	Rows, Cols int
	// Iters is the fixed iteration count (paper: 5000).
	Iters int
	// TopTemp is the fixed temperature of the top edge; the other edges
	// are held at zero.
	TopTemp float64
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{Rows: 1024, Cols: 512, Iters: 5000, TopTemp: 100}
}

// Validate checks the geometry.
func (p Params) Validate() error {
	if p.Rows < 3 || p.Cols < 3 {
		return fmt.Errorf("laplace: grid %dx%d too small", p.Rows, p.Cols)
	}
	if p.Iters < 1 {
		return fmt.Errorf("laplace: %d iterations", p.Iters)
	}
	if p.Cols > maxCells/p.Rows {
		return fmt.Errorf("laplace: grid %dx%d does not fit the 4 GiB address space", p.Rows, p.Cols)
	}
	return nil
}

// maxCells bounds Rows*Cols so that an array's byte size fits in uint32.
const maxCells = (1<<32 - 1) / 8

// Cells returns the total cell count.
func (p Params) Cells() int { return p.Rows * p.Cols }

// ArrayBytes returns the byte size of one grid array.
func (p Params) ArrayBytes() uint32 { return uint32(p.Cells() * 8) }

// SVMPages returns the shared pages the SVM variants' two arrays take.
func (p Params) SVMPages() uint64 {
	return 2 * ((uint64(p.ArrayBytes()) + pgtable.PageSize - 1) / pgtable.PageSize)
}

// RowBytes returns the byte size of one row.
func (p Params) RowBytes() uint32 { return uint32(p.Cols * 8) }

// InteriorRows returns the number of updatable rows.
func (p Params) InteriorRows() int { return p.Rows - 2 }

// Partition returns the half-open interior-row range [lo, hi) assigned to
// rank r of n (static contiguous distribution, as in the paper).
func (p Params) Partition(r, n int) (lo, hi int) {
	rows := p.InteriorRows()
	base, rem := rows/n, rows%n
	lo = 1 + r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

// cell returns the address of cell (r, col) in an array at base laid out
// Cols cells a row.
func (p Params) cell(base uint32, r, col int) uint32 {
	return base + uint32(r*p.Cols+col)*8
}

// sweep updates rows [lo, hi) of the array at niu from the array at old:
// the Jacobi stencil of both parallel variants.
func (p Params) sweep(c *cpu.Core, old, niu uint32, lo, hi int) {
	for r := lo; r < hi; r++ {
		up := p.cell(old, r-1, 1)
		down := p.cell(old, r+1, 1)
		left := p.cell(old, r, 0)
		right := p.cell(old, r, 2)
		dst := p.cell(niu, r, 1)
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

// Result summarizes one run.
type Result struct {
	// Elapsed is the longest per-core busy time of the compute phase
	// (allocation and result extraction excluded).
	Elapsed sim.Duration
	// Checksum is the exact sum of all final cell values in row order.
	Checksum float64
	// Faults is the total SVM page-fault count (zero for the baseline).
	Faults uint64
}

// initGrid writes the boundary conditions into a host grid.
func initGrid(p Params, g []float64) {
	for c := 0; c < p.Cols; c++ {
		g[c] = p.TopTemp
	}
}

// Reference solves the problem in plain Go and returns the final grid.
func Reference(p Params) []float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	old := make([]float64, p.Cells())
	niu := make([]float64, p.Cells())
	initGrid(p, old)
	initGrid(p, niu)
	for it := 0; it < p.Iters; it++ {
		for r := 1; r < p.Rows-1; r++ {
			for c := 1; c < p.Cols-1; c++ {
				i := r*p.Cols + c
				niu[i] = 0.25 * (old[i-p.Cols] + old[i+p.Cols] + old[i-1] + old[i+1])
			}
		}
		old, niu = niu, old
	}
	return old
}

// ReferenceChecksum solves and checksums the reference in one call.
func ReferenceChecksum(p Params) float64 {
	return ChecksumGrid(Reference(p))
}

// ChecksumGrid sums a grid in row order (the exact order the parallel
// variants use, so results compare bit-exactly).
func ChecksumGrid(g []float64) float64 {
	var s float64
	for _, v := range g {
		s += v
	}
	return s
}
