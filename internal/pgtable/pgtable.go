// Package pgtable implements per-core page tables with the translation
// semantics of the 32-bit x86 two-level tables MetalSVM manages on the SCC.
//
// Every core owns a private table (the paper stresses that page tables live
// in private memory, so each core holds its own view of the shared region —
// which is why first touch faults once per core). Entries carry the bits the
// SVM system plays with: Present, Writable, WriteThrough and MPBT.
//
// The representation is sparse: a core's private region is an identity
// window of two numbers, and only the entries installed one by one (the
// shared pages the SVM system maps) take host memory, in a map by page
// number. A lookup answers exactly what the two-level walk would.
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

// identityFlags are the bits of every page of an identity window.
const identityFlags = Present | Writable | WriteThrough

// Table is a core's page table over a 32-bit virtual address space. It
// translates exactly as the two-level x86 tables it models, but its host
// memory follows what is mapped, not the address space: the pages below an
// identity window (the core's private region, see Identity) have no stored
// entry at all, and every other entry lives in a map keyed by page number.
// A one-entry memo of the last page looked up or changed spares the map on
// the hot path (a fault's lookup, flag change and retried lookup of one
// page).
type Table struct {
	// entries holds the explicit entries, each addressable so it is changed
	// in place. The zero Entry means absent: Unmap zeroes an entry and
	// keeps it for the next Map of its page.
	entries map[uint32]*Entry

	// Pages [0, identPages) translate to frames identBase+vpn.
	identPages uint32
	identBase  uint32

	// memo is entries[memoVPN], or nil.
	memo    *Entry
	memoVPN uint32

	// version counts table modifications (Identity, Map, Unmap, SetFlags).
	// External memoizers of Lookup results — the per-core software TLB in
	// internal/cpu — compare it to detect staleness without the table
	// having to know about them.
	version uint64

	// events receives a KindMap for every entry Map installs where there was
	// none and a KindUnmap for every entry removed, as core's and stamped by
	// now (see Observe). Identity emits nothing.
	events *trace.Stream
	core   int
	now    func() sim.Time
}

// Observe reports the table's installs and removals to s. The table knows
// neither which core owns it nor what time it is, so its owner says both.
func (t *Table) Observe(s *trace.Stream, core int, now func() sim.Time) {
	t.events, t.core, t.now = s, core, now
}

// Version returns the modification counter: it changes on every Identity,
// Map, Unmap and SetFlags, so a cached Lookup result is valid iff the
// version at caching time still matches.
func (t *Table) Version() uint64 { return t.version }

// New returns an empty table.
func New() *Table { return &Table{entries: make(map[uint32]*Entry)} }

// Identity maps the pages of [0, pages*PageSize) to the frames from basePFN
// on, Present, Writable and WriteThrough: what mapping each of them one by
// one would install, but stored as two numbers. Its pages are fixed: a Map,
// Unmap or SetFlags inside the window panics.
func (t *Table) Identity(pages, basePFN uint32) {
	t.identPages, t.identBase = pages, basePFN
	t.version++
}

// entry returns the stored entry of vaddr's page, nil when there is none,
// through the memo. A page inside the identity window has none to change:
// entry panics, naming op, and Lookup answers such pages before asking.
func (t *Table) entry(vaddr uint32, op string) *Entry {
	vpn := VPN(vaddr)
	if vpn < t.identPages {
		panic(fmt.Sprintf("pgtable: %s of identity-mapped page %#x", op, vaddr))
	}
	if t.memo != nil && t.memoVPN == vpn {
		return t.memo
	}
	p := t.entries[vpn]
	if p != nil {
		t.memo, t.memoVPN = p, vpn
	}
	return p
}

// Lookup returns the entry for vaddr and whether any entry exists (present
// or not). Callers check Present themselves so they can distinguish
// not-mapped from mapped-but-faulting states.
func (t *Table) Lookup(vaddr uint32) (Entry, bool) {
	if vpn := VPN(vaddr); vpn < t.identPages {
		return Entry{PFN: t.identBase + vpn, Flags: identityFlags}, true
	}
	if p := t.entry(vaddr, "lookup"); p != nil {
		return *p, *p != Entry{}
	}
	return Entry{}, false
}

// Map installs an entry for the page containing vaddr.
func (t *Table) Map(vaddr, pfn uint32, flags Flags) {
	p := t.entry(vaddr, "map")
	if p == nil {
		p = new(Entry)
		t.entries[VPN(vaddr)] = p
		t.memo, t.memoVPN = p, VPN(vaddr)
	}
	existed := *p != Entry{}
	*p = Entry{PFN: pfn, Flags: flags}
	t.version++
	if !existed && t.events.On(trace.KindMap) {
		t.events.Emit(t.now(), t.core, trace.KindMap, uint64(vaddr), 0)
	}
}

// Unmap removes the entry for the page containing vaddr entirely.
func (t *Table) Unmap(vaddr uint32) {
	p := t.entry(vaddr, "unmap")
	if p == nil || *p == (Entry{}) {
		return
	}
	*p = Entry{}
	t.version++
	if t.events.On(trace.KindUnmap) {
		t.events.Emit(t.now(), t.core, trace.KindUnmap, uint64(vaddr), 0)
	}
}

// SetFlags clears the bits in clear, then sets those in set, on the entry
// for vaddr. It panics if no entry exists — protocol code must never touch
// unmapped pages blindly.
func (t *Table) SetFlags(vaddr uint32, set, clear Flags) {
	p := t.entry(vaddr, "flag change")
	if p == nil || *p == (Entry{}) {
		panic(fmt.Sprintf("pgtable: flag change of unmapped page %#x", vaddr))
	}
	p.Flags = p.Flags&^clear | set
	t.version++
}
