package svm

import (
	"fmt"
	"testing"

	"metalsvm/internal/pgtable"
)

// TestKitchenSinkScenario runs a long scripted scenario that interleaves
// every SVM feature — collective alloc, first touch, ownership transfers,
// locks, read-only protection, next-touch migration, and free — under both
// consistency models, checking functional expectations at every step. Its
// purpose is to surface feature interaction bugs that per-feature tests
// cannot (e.g. migrating a page that was once owned elsewhere, freeing a
// region whose pages are armed for migration).
func TestKitchenSinkScenario(t *testing.T) {
	for _, model := range []Model{Strong, LazyRelease} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			members := []int{0, 13, 30, 47}
			r := newRig(t, DefaultConfig(model), members)
			mains := map[int]func(*Handle){}
			for idx, id := range members {
				idx, id := idx, id
				mains[id] = func(h *Handle) {
					k := h.Kernel()
					c := k.Core()

					// Region A: phased counters, one writer per phase.
					regA := h.Alloc(4 * pgtable.PageSize)
					// Region B: lookup table, later protected read-only.
					regB := h.Alloc(2 * pgtable.PageSize)
					// Region C: scratch region, freed mid-scenario.
					regC := h.Alloc(3 * pgtable.PageSize)
					h.Barrier()

					// Step 1: every member writes its own page of A, all of C.
					c.Store64(regA+uint32(idx)*pgtable.PageSize, uint64(100+idx))
					if idx == 0 {
						for p := uint32(0); p < 3; p++ {
							c.Store64(regC+p*pgtable.PageSize, uint64(900+p))
						}
						for off := uint32(0); off < 2*pgtable.PageSize; off += 8 {
							c.Store64(regB+off, uint64(off/8)*3)
						}
					}
					h.Barrier()

					// Step 2: cross-check neighbours' pages of A and C.
					peer := (idx + 1) % len(members)
					if v := c.Load64(regA + uint32(peer)*pgtable.PageSize); v != uint64(100+peer) {
						t.Errorf("[%v] core %d: A[%d] = %d", model, id, peer, v)
					}
					if v := c.Load64(regC + pgtable.PageSize); v != 901 {
						t.Errorf("[%v] core %d: C[1] = %d", model, id, v)
					}
					h.Barrier()

					// Step 3: protect B read-only; everybody scans it.
					h.ProtectReadOnly(regB, 2*pgtable.PageSize)
					for off := uint32(0); off < 2*pgtable.PageSize; off += 512 {
						if v := c.Load64(regB + off); v != uint64(off/8)*3 {
							t.Errorf("[%v] core %d: B[%d] = %d", model, id, off, v)
						}
					}
					h.Barrier()

					// Step 4: free C; its frames recycle. Later allocations
					// must come up zeroed.
					h.Free(regC)

					// Step 5: locked increments on A's first page.
					for i := 0; i < 5; i++ {
						h.Lock(17)
						v := c.Load64(regA + 8)
						c.Store64(regA+8, v+1)
						h.Unlock(17)
					}
					h.Barrier()
					if v := c.Load64(regA + 8); v != uint64(5*len(members)) {
						t.Errorf("[%v] core %d: locked counter = %d, want %d",
							model, id, v, 5*len(members))
					}
					h.Barrier()

					// Step 6: next-touch A, then the *last* member touches
					// everything: frames migrate to it, values survive.
					h.NextTouch(regA, 4*pgtable.PageSize)
					if idx == len(members)-1 {
						for p := 0; p < len(members); p++ {
							want := uint64(100 + p)
							if p == 0 {
								// Page 0 also holds the locked counter at +8;
								// its own word 0 was written by member 0.
								want = uint64(100)
							}
							if v := c.Load64(regA + uint32(p)*pgtable.PageSize); v != want {
								t.Errorf("[%v] post-migration A[%d] = %d, want %d", model, p, v, want)
							}
						}
						if h.migrations == 0 {
							t.Errorf("[%v] no migrations recorded", model)
						}
					}
					h.Barrier()

					// Step 7: a fresh allocation reuses C's frames, zeroed.
					regD := h.Alloc(3 * pgtable.PageSize)
					if v := c.Load64(regD + uint32(idx)*8); v != 0 {
						t.Errorf("[%v] core %d: recycled frame leaked %d", model, id, v)
					}
					h.Barrier()
				}
			}
			r.run(t, mains)
		})
	}
}

// TestKitchenSinkDeterminism replays the scenario and requires identical
// end times — the whole feature set together must stay deterministic.
func TestKitchenSinkDeterminism(t *testing.T) {
	run := func() string {
		members := []int{0, 30}
		r := newRig(t, DefaultConfig(Strong), members)
		mains := map[int]func(*Handle){}
		for idx, id := range members {
			idx, id := idx, id
			_ = idx
			mains[id] = func(h *Handle) {
				reg := h.Alloc(2 * pgtable.PageSize)
				h.Kernel().Core().Store64(reg+uint32(id)*8, uint64(id))
				h.Barrier()
				h.Lock(3)
				v := h.Kernel().Core().Load64(reg)
				h.Kernel().Core().Store64(reg, v+1)
				h.Unlock(3)
				h.Barrier()
				h.NextTouch(reg, 2*pgtable.PageSize)
				h.Kernel().Core().Load64(reg)
				h.Barrier()
				h.Free(reg)
			}
		}
		r.run(t, mains)
		return fmt.Sprint(r.eng.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}
