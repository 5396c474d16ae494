package svm

import (
	"testing"

	"metalsvm/internal/pgtable"
)

// BenchmarkOwnershipTransfer prices the strong model's fault round trip:
// cores 0 and 30 bounce one page, each storing to it in turn, so every
// store faults, mails the owner, and waits while the owner revokes, drains
// its WCB, runs CL1INVMB and acks. One op is one transfer. A core waits for
// its turn by serving the other's request, so no other mail or barrier
// runs between transfers.
func BenchmarkOwnershipTransfer(b *testing.B) {
	r := newRig(b, DefaultConfig(Strong), []int{0, 30})
	n := b.N
	// Core 30 makes the odd transfers and core 0 the even ones; after its
	// store a core waits until it has served the next one.
	turn := func(first int) func(*Handle) {
		return func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			c := h.Kernel().Core()
			if first == 2 {
				c.Store64(base, 0) // first touch: core 0 owns the page
			}
			h.KernelBarrier()
			next := func(j int) {
				served := h.stats.OwnerServed
				if j <= n {
					h.Kernel().WaitFor(func() bool { return h.stats.OwnerServed > served })
				}
			}
			if first == 2 {
				next(1)
			}
			for j := first; j <= n; j += 2 {
				c.Store64(base, uint64(j))
				next(j + 1)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	r.run(b, map[int]func(*Handle){0: turn(2), 30: turn(1)})
	b.StopTimer()
	if got := r.sys.handles[0].stats.OwnerServed + r.sys.handles[30].stats.OwnerServed; got != uint64(n) {
		b.Fatalf("%d transfers, want %d", got, n)
	}
}
