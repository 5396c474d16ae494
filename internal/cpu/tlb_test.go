package cpu

import (
	"math/rand"
	"testing"

	"metalsvm/internal/pgtable"
)

// TestTLBMatchesTableWalk interleaves page-table modifications with
// translations (fixed seed: the test is deterministic) and checks that every
// answer of Core.translate — TLB hit, miss or post-fault retry — is the
// entry a fresh pgtable.Table.Lookup returns and permits the access. Most
// accesses go to a hot set whose pages collide in the direct-mapped TLB
// (vpn and vpn+tlbSize share a slot), so hits, conflict replacement and the
// version flush after every Map/Unmap/Update all occur.
func TestTLBMatchesTableWalk(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, _ *fakeBus) {
		rng := rand.New(rand.NewSource(1))
		const pages = 4 * tlbSize
		hot := []uint32{0, 1, 2, 3, tlbSize, tlbSize + 1, tlbSize + 2, 3 * tlbSize}
		page := func() uint32 {
			vpn := uint32(rng.Intn(pages))
			if rng.Intn(4) != 0 {
				vpn = hot[rng.Intn(len(hot))]
			}
			return vpn * pgtable.PageSize
		}
		// WriteThrough is always set, so no mapped entry is the zero Entry
		// (which the table treats as absent).
		flags := func() pgtable.Flags {
			f := pgtable.WriteThrough
			if rng.Intn(4) != 0 {
				f |= pgtable.Present
			}
			if rng.Intn(2) == 0 {
				f |= pgtable.Writable
			}
			return f
		}
		c.SetFaultHandler(func(c *Core, vaddr uint32, write bool, _ pgtable.Entry) {
			c.Table.Map(vaddr, rng.Uint32()>>pgtable.PageShift, pgtable.WriteThrough|pgtable.Present|pgtable.Writable)
		})

		for op := 0; op < 100_000; op++ {
			v := page()
			switch rng.Intn(48) {
			case 0:
				c.Table.Map(v, rng.Uint32()>>pgtable.PageShift, flags())
			case 1:
				c.Table.Unmap(v)
			case 2:
				if _, ok := c.Table.Lookup(v); ok {
					f := flags()
					c.Table.Update(v, func(e *pgtable.Entry) { e.Flags = f })
				}
			default:
				v += uint32(rng.Intn(pgtable.PageSize))
				write := rng.Intn(3) == 0
				got := c.translate(v, write)
				want, ok := c.Table.Lookup(v)
				// Errorf and return: this is the proc's goroutine, which a
				// Fatalf would end with the engine still waiting for it.
				if !ok || got != want {
					t.Errorf("op %d: translate(%#x, write=%v) = %+v, table walk says %+v (exists %v)",
						op, v, write, got, want, ok)
					return
				}
				if !got.Flags.Has(pgtable.Present) || write && !got.Flags.Has(pgtable.Writable) {
					t.Errorf("op %d: translate(%#x, write=%v) returned %v, which forbids the access",
						op, v, write, got.Flags)
					return
				}
			}
		}
		s := c.Stats()
		if s.TLBHits == 0 || s.TLBMisses == 0 || s.Faults == 0 {
			t.Errorf("the sequence missed a path: %d TLB hits, %d misses, %d faults", s.TLBHits, s.TLBMisses, s.Faults)
		}
	})
}
