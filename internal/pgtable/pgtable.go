// Package pgtable implements per-core two-level page tables in the style of
// the 32-bit x86 tables MetalSVM manages on the SCC.
//
// Every core owns a private table (the paper stresses that page tables live
// in private memory, so each core holds its own view of the shared region —
// which is why first touch faults once per core). Entries carry the bits the
// SVM system plays with: Present, Writable, WriteThrough and MPBT.
package pgtable

import (
	"fmt"

	"metalsvm/internal/sim"
	"metalsvm/internal/trace"
)

// PageSize is the page size in bytes (4 KiB, as on the P54C).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VPN returns the virtual page number of vaddr.
func VPN(vaddr uint32) uint32 { return vaddr >> PageShift }

// PageBase returns the page-aligned base of vaddr.
func PageBase(vaddr uint32) uint32 { return vaddr &^ (PageSize - 1) }

// PageOffset returns the offset of vaddr within its page.
func PageOffset(vaddr uint32) uint32 { return vaddr & (PageSize - 1) }

// Flags are the PTE control bits the simulator models.
type Flags uint16

const (
	// Present marks the entry as mapped; absent entries fault on any access.
	Present Flags = 1 << iota
	// Writable allows stores; reads-only entries fault on stores.
	Writable
	// WriteThrough selects the write-through strategy (set for all SVM
	// pages; the model treats private pages as write-through too, matching
	// the P54C's L1 behaviour).
	WriteThrough
	// MPBT tags the page with the SCC's new memory type: L2 is bypassed,
	// stores go through the write-combine buffer, and CL1INVMB invalidates
	// the page's L1 lines.
	MPBT
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

func (f Flags) String() string {
	s := ""
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(Present, "P")
	add(Writable, "W")
	add(WriteThrough, "WT")
	add(MPBT, "MPBT")
	if s == "" {
		s = "0"
	}
	return s
}

// Entry is one page-table entry.
type Entry struct {
	// PFN is the physical frame number (physical address >> PageShift).
	PFN   uint32
	Flags Flags
}

// PhysAddr translates an in-page offset through the entry.
func (e Entry) PhysAddr(vaddr uint32) uint32 {
	return e.PFN<<PageShift | PageOffset(vaddr)
}

const (
	dirBits   = 10
	tableBits = 10
	dirSize   = 1 << dirBits
	tableSize = 1 << tableBits
)

// Table is a two-level page table covering a 32-bit virtual address space.
// Second-level tables are allocated on demand, so sparse address spaces stay
// cheap. A one-entry translation cache accelerates the hot path; it is
// invalidated by every table modification (a core only ever modifies its own
// table, so there is no remote-shootdown problem to model).
type Table struct {
	dir [dirSize]*[tableSize]Entry

	tlbValid bool
	tlbVPN   uint32
	tlbEntry Entry

	// version counts table modifications (Map, Unmap, Update). External
	// memoizers of Lookup results — the per-core software TLB in
	// internal/cpu — compare it to detect staleness without the table
	// having to know about them.
	version uint64

	// events receives a KindMap for every entry installed where there was
	// none and a KindUnmap for every entry removed, as core's and stamped
	// by now (see Observe).
	events *trace.Stream
	core   int
	now    func() sim.Time
}

// Observe reports the table's installs and removals to s. The table knows
// neither which core owns it nor what time it is, so its owner says both.
func (t *Table) Observe(s *trace.Stream, core int, now func() sim.Time) {
	t.events, t.core, t.now = s, core, now
}

// Version returns the modification counter: it changes on every Map, Unmap
// and Update, so a cached Lookup result is valid iff the version at caching
// time still matches.
func (t *Table) Version() uint64 { return t.version }

// New returns an empty table.
func New() *Table { return &Table{} }

func split(vpn uint32) (di, ti uint32) { return vpn >> tableBits, vpn & (tableSize - 1) }

// Lookup returns the entry for vaddr and whether any entry exists (present
// or not). Callers check Present themselves so they can distinguish
// not-mapped from mapped-but-faulting states.
func (t *Table) Lookup(vaddr uint32) (Entry, bool) {
	vpn := VPN(vaddr)
	if t.tlbValid && t.tlbVPN == vpn {
		return t.tlbEntry, true
	}
	di, ti := split(vpn)
	tab := t.dir[di]
	if tab == nil {
		return Entry{}, false
	}
	e := tab[ti]
	if e.Flags.Has(Present) {
		t.tlbValid = true
		t.tlbVPN = vpn
		t.tlbEntry = e
	}
	return e, e != Entry{}
}

// Map installs an entry for the page containing vaddr.
func (t *Table) Map(vaddr, pfn uint32, flags Flags) {
	vpn := VPN(vaddr)
	di, ti := split(vpn)
	tab := t.dir[di]
	if tab == nil {
		tab = new([tableSize]Entry)
		t.dir[di] = tab
	}
	existed := tab[ti] != (Entry{})
	tab[ti] = Entry{PFN: pfn, Flags: flags}
	t.tlbValid = false
	t.version++
	if !existed && t.events.On(trace.KindMap) {
		t.events.Emit(t.now(), t.core, trace.KindMap, uint64(vaddr), 0)
	}
}

// Unmap removes the entry for the page containing vaddr entirely.
func (t *Table) Unmap(vaddr uint32) {
	di, ti := split(VPN(vaddr))
	tab := t.dir[di]
	if tab == nil {
		return
	}
	if tab[ti] == (Entry{}) {
		return
	}
	tab[ti] = Entry{}
	t.tlbValid = false
	t.version++
	if t.events.On(trace.KindUnmap) {
		t.events.Emit(t.now(), t.core, trace.KindUnmap, uint64(vaddr), 0)
	}
}

// Update mutates the entry for vaddr in place via fn. It panics if no entry
// exists — protocol code must never touch unmapped pages blindly.
func (t *Table) Update(vaddr uint32, fn func(*Entry)) {
	di, ti := split(VPN(vaddr))
	tab := t.dir[di]
	if tab == nil || tab[ti] == (Entry{}) {
		panic(fmt.Sprintf("pgtable: update of unmapped page %#x", vaddr))
	}
	fn(&tab[ti])
	t.tlbValid = false
	t.version++
}
