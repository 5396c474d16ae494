package cpu

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"metalsvm/internal/pgtable"
)

// TestTLBMatchesTableWalk interleaves page-table modifications with
// translations (fixed seed: the test is deterministic) and checks that every
// answer of Core.translate — TLB hit, miss or post-fault retry — is the
// entry a fresh pgtable.Table.Lookup returns and permits the access. Most
// accesses go to a hot set of eight pages that share two slots of the
// direct-mapped TLB, so hits, conflict replacement and the version flush
// after every Map/Unmap/Update all occur.
func TestTLBMatchesTableWalk(t *testing.T) {
	testCore(t, DefaultConfig(), nil, func(c *Core, _ *fakeBus) {
		rng := rand.New(rand.NewSource(1))
		const pages = 4 * tlbSize
		var hot []uint32
		for vpn := uint32(0); vpn < pages; vpn++ {
			if tlbSlot(vpn) < 2 {
				hot = append(hot, vpn)
			}
		}
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
					c.Table.SetFlags(v, f, ^f)
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

// TestTLBArraysApartKeepTheirSlots pins the stencil pattern that used to
// thrash the TLB: two 1 024-page arrays side by side, row r of one read
// right after row r of the other. No two VPNs 1 024 apart share a slot
// anywhere in the 20-bit page-number space, and in the stencil order both
// rows stay cached.
func TestTLBArraysApartKeepTheirSlots(t *testing.T) {
	const apart = 1024
	for vpn := uint32(0); vpn+apart < 1<<(32-pgtable.PageShift); vpn++ {
		if tlbSlot(vpn) == tlbSlot(vpn+apart) {
			t.Fatalf("VPNs %#x and %#x share TLB slot %d", vpn, vpn+apart, tlbSlot(vpn))
		}
	}

	table := pgtable.New()
	entry := pgtable.Entry{Flags: pgtable.Present | pgtable.WriteThrough}
	tl := newTLB()
	for row := uint32(0); row < apart; row++ {
		old, cur := row*pgtable.PageSize, (row+apart)*pgtable.PageSize
		tl.insert(table, old, entry)
		tl.insert(table, cur, entry)
		if _, ok := tl.lookup(table, old); !ok {
			t.Fatalf("row %d: inserting page %#x evicted page %#x", row, cur, old)
		}
	}
}

// TestTLBEpochWrap forces the flush epoch to wrap, as 2^32 flushes would: an
// entry stamped with epoch 1 long ago must not hit once the counter comes
// round to 1 again, so the wrapping flush has to clear the entries.
func TestTLBEpochWrap(t *testing.T) {
	if n := unsafe.Sizeof(tlbEntry{}); n != 16 {
		t.Fatalf("a TLB entry is %d bytes, want 16", n)
	}
	table := pgtable.New()
	entry := pgtable.Entry{PFN: 7, Flags: pgtable.Present | pgtable.WriteThrough}
	const old, cur = 0x1000, 0x2000
	tl := newTLB()
	if _, ok := tl.lookup(table, 0); ok {
		t.Fatal("a fresh TLB hit page 0")
	}
	tl.insert(table, old, entry) // epoch 1
	if _, ok := tl.lookup(table, old); !ok {
		t.Fatal("the inserted page missed")
	}

	// The hook: the old entry stays put while 2^32-2 flushes pass.
	tl.epoch = math.MaxUint32
	table.Map(cur, 9, entry.Flags)
	v := table.Version()
	tl.insert(table, cur, pgtable.Entry{PFN: 9, Flags: entry.Flags})
	if tl.epoch != 1 || tl.version != v {
		t.Fatalf("after the wrapping flush: epoch %d, version %d (table %d)", tl.epoch, tl.version, v)
	}
	if _, ok := tl.lookup(table, cur); !ok {
		t.Fatal("the page inserted by the wrapping flush missed")
	}
	// The old entry's page is still mapped and the TLB is at the table's
	// version, so only its epoch can make it miss.
	if e, ok := tl.lookup(table, old); ok {
		t.Fatalf("an entry from before the wrap hit: %+v", e)
	}
}
