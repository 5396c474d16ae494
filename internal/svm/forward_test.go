package svm

import (
	"testing"

	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/sim"
)

// TestOwnershipRequestForwarding stages the strong model's stale-owner
// race deterministically: core A first-touches a page; cores B and C fault
// on it almost simultaneously. C reads the owner vector while A still owns
// the page, but its request reaches A only after A has served B — so A
// must forward C's request to B. The simulator is deterministic, so once
// the stagger provokes a forward it always does.
func TestOwnershipRequestForwarding(t *testing.T) {
	staggersUS := []float64{1, 2, 3, 4, 5, 7, 9}
	for _, d := range staggersUS {
		if runForwardScenario(t, d) {
			return // forwarding path exercised and verified
		}
	}
	t.Fatalf("no stagger in %v us provoked a forward — protocol path untested", staggersUS)
}

func runForwardScenario(t *testing.T, staggerUS float64) bool {
	t.Helper()
	members := []int{0, 20, 40}
	r := newRig(t, DefaultConfig(Strong), members)
	vals := map[int]uint64{}
	mains := map[int]func(*Handle){
		0: func(h *Handle) { // A: first-touch owner
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 777)
			h.Kernel().Barrier()
			h.Kernel().Barrier()
		},
		20: func(h *Handle) { // B: first contender
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Barrier()
			h.Kernel().Core().Proc().Advance(sim.Microseconds(100))
			vals[20] = h.Kernel().Core().Load64(base)
			h.Kernel().Barrier()
		},
		40: func(h *Handle) { // C: staggered second contender
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Barrier()
			h.Kernel().Core().Proc().Advance(sim.Microseconds(100 + staggerUS))
			vals[40] = h.Kernel().Core().Load64(base)
			h.Kernel().Barrier()
		},
	}
	r.run(t, mains)
	// Correctness holds regardless of which path the race took.
	if vals[20] != 777 || vals[40] != 777 {
		t.Fatalf("stagger %vus: stale reads %v", staggerUS, vals)
	}
	forwards := uint64(0)
	for _, id := range members {
		forwards += r.sys.handles[id].Stats().Forwards
	}
	return forwards > 0
}

// TestDuplicateOwnerRequestAcked replays an ownership request the owner has
// already served, as a second dispatch of the same mail frame would (the
// plain mailbox can dispatch a frame twice). The old owner finds the owner
// vector naming the requester and acks it again directly: it must neither
// serve the page a second time nor forward the request to the requester
// itself (a send to self).
func TestDuplicateOwnerRequestAcked(t *testing.T) {
	members := []int{0, 20}
	r := newRig(t, DefaultConfig(Strong), members)
	var idx uint32
	var got uint64
	extraAcks := 0
	mains := map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 777)
			h.Kernel().Barrier()
			h.Kernel().Barrier()
		},
		20: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Barrier()
			got = h.Kernel().Core().Load64(base) // acquires the page from core 0
			idx = h.sys.pageIndex(base)
			r := h.record(idx)
			before := r.acks
			var p [8]byte
			mailbox.PutU32(p[:], 0, idx)
			mailbox.PutU32(p[:], 1, uint32(h.k.ID()))
			h.k.Send(0, msgOwnerReq, p[:])
			h.k.WaitFor(func() bool { return r.acks > before })
			extraAcks = int(r.acks - before)
			h.Kernel().Barrier()
		},
	}
	r.run(t, mains)
	if got != 777 {
		t.Fatalf("core 20 read %d, want 777", got)
	}
	old, req := r.sys.handles[0].Stats(), r.sys.handles[20].Stats()
	if old.OwnerServed != 1 || old.Forwards != 1 || req.OwnerServed != 0 || extraAcks != 1 {
		t.Fatalf("duplicate request: owner served %d, forwarded %d; requester served %d, extra acks %d",
			old.OwnerServed, old.Forwards, req.OwnerServed, extraAcks)
	}
	if owner := r.sys.dir.PeekOwner(idx); owner != 20 {
		t.Fatalf("owner vector names core %d after the duplicate, want 20", owner)
	}
}
