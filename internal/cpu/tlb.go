package cpu

import "metalsvm/internal/pgtable"

// The per-core software TLB memoizes successful pgtable.Lookup results so
// the dominant load/store path skips the table walk. It is a pure host-speed
// optimization: the simulator charges no cycles for table walks
// (translation cost on the SCC is modeled inside the fault path, not per
// access), so hitting or missing this TLB cannot move a simulated timestamp.
//
// Coherence is by generation number, not by shootdown: every PTE write
// (Identity, Map, Unmap, SetFlags — including the protocol's
// CL1INVMB-adjacent permission downgrades on ownership transfer) bumps the
// owning table's version counter, and the TLB compares that counter on every
// access: a changed counter misses every entry, and the next insert flushes
// them wholesale by moving to a new flush epoch. A core only ever modifies its
// own table (the paper keeps page tables in private memory), so the version
// check is the entire invalidation protocol.
const (
	tlbBits = 7 // 128 entries, direct-mapped
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbSlot is the entry a page maps to. Folding the page number's higher bits
// into the index keeps arrays a multiple of 128 pages apart out of each
// other's way: Laplace's old and new grids are 1 024 pages apart, and with
// the low bits alone every cell's source row evicted its destination row.
func tlbSlot(vpn uint32) uint32 { return (vpn ^ vpn>>tlbBits ^ vpn>>(2*tlbBits)) & tlbMask }

// tlbEntry is valid while its epoch is the TLB's. A zero entry never is:
// epochs start at 1.
type tlbEntry struct {
	epoch uint32
	vpn   uint32
	entry pgtable.Entry
}

// tlb must be made by newTLB. A flush moves it to the next epoch, which
// drops every entry without touching them; only when the epoch counter
// wraps does a flush clear the entries, so no entry of an epoch 2^32
// flushes old can come back to life.
type tlb struct {
	version uint64
	epoch   uint32
	entries [tlbSize]tlbEntry
}

func newTLB() tlb { return tlb{epoch: 1} }

// lookup returns the cached entry for vaddr if it is current. table is the
// core's page table; the hit is only valid while the table's version
// matches the one observed when the entry was installed. A changed version
// makes every entry miss until the walk's insert flushes them, so the
// lookup itself never writes and inlines.
func (t *tlb) lookup(table *pgtable.Table, vaddr uint32) (pgtable.Entry, bool) {
	vpn := pgtable.VPN(vaddr)
	e := &t.entries[tlbSlot(vpn)]
	if e.epoch == t.epoch && e.vpn == vpn && table.Version() == t.version {
		return e.entry, true
	}
	return pgtable.Entry{}, false
}

// insert caches a translation that the table walk just produced. The
// caller must have performed the walk after its last table modification,
// so the table's current version tags the entry set.
func (t *tlb) insert(table *pgtable.Table, vaddr uint32, entry pgtable.Entry) {
	if v := table.Version(); v != t.version {
		t.flush(v)
	}
	vpn := pgtable.VPN(vaddr)
	t.entries[tlbSlot(vpn)] = tlbEntry{epoch: t.epoch, vpn: vpn, entry: entry}
}

func (t *tlb) flush(version uint64) {
	t.version = version
	if t.epoch++; t.epoch == 0 {
		t.entries = [tlbSize]tlbEntry{}
		t.epoch = 1
	}
}
