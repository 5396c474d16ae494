package pgtable

import (
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	if VPN(0x12345) != 0x12 {
		t.Fatalf("VPN = %#x", VPN(0x12345))
	}
	if PageBase(0x12345) != 0x12000 {
		t.Fatalf("PageBase = %#x", PageBase(0x12345))
	}
	if PageOffset(0x12345) != 0x345 {
		t.Fatalf("PageOffset = %#x", PageOffset(0x12345))
	}
}

func TestMapLookup(t *testing.T) {
	tb := New()
	if _, ok := tb.Lookup(0x40000000); ok {
		t.Fatal("empty table returned an entry")
	}
	tb.Map(0x40000123, 77, Present|Writable|MPBT)
	e, ok := tb.Lookup(0x40000456)
	if !ok || e.PFN != 77 {
		t.Fatalf("lookup = %+v ok=%v", e, ok)
	}
	if !e.Flags.Has(Present | Writable | MPBT) {
		t.Fatalf("flags = %v", e.Flags)
	}
	if got := e.PhysAddr(0x40000456); got != 77<<PageShift|0x456 {
		t.Fatalf("phys = %#x", got)
	}
	if mapped(tb) != 1 {
		t.Fatalf("mapped = %d", mapped(tb))
	}
}

func TestUnmap(t *testing.T) {
	tb := New()
	tb.Map(0x1000, 1, Present)
	tb.Unmap(0x1000)
	if _, ok := tb.Lookup(0x1000); ok {
		t.Fatal("unmapped entry still present")
	}
	if mapped(tb) != 0 {
		t.Fatalf("mapped = %d", mapped(tb))
	}
}

func TestUpdateFlagsInvalidatesTLB(t *testing.T) {
	tb := New()
	tb.Map(0x2000, 5, Present|Writable)
	// Prime the translation cache.
	if e, _ := tb.Lookup(0x2000); !e.Flags.Has(Writable) {
		t.Fatal("setup")
	}
	tb.Update(0x2000, func(e *Entry) { e.Flags &^= Writable })
	e, _ := tb.Lookup(0x2000)
	if e.Flags.Has(Writable) {
		t.Fatal("stale translation cache: Writable still visible")
	}
	tb.Update(0x2000, func(e *Entry) { e.Flags |= Writable })
	e, _ = tb.Lookup(0x2000)
	if !e.Flags.Has(Writable) {
		t.Fatal("set Writable not visible")
	}
}

func TestUpdateUnmappedPanics(t *testing.T) {
	tb := New()
	defer func() {
		if recover() == nil {
			t.Fatal("update of unmapped page did not panic")
		}
	}()
	tb.Update(0x5000, func(e *Entry) {})
}

func TestNonPresentEntryPreserved(t *testing.T) {
	// The strong model clears Present on revoked pages but keeps the PFN so
	// a later re-acquire doesn't need the scratchpad again.
	tb := New()
	tb.Map(0x3000, 42, Present|Writable)
	tb.Update(0x3000, func(e *Entry) { e.Flags &^= Present | Writable })
	e, ok := tb.Lookup(0x3000)
	if !ok {
		t.Fatal("revoked entry vanished")
	}
	if e.Flags.Has(Present) {
		t.Fatal("still present")
	}
	if e.PFN != 42 {
		t.Fatalf("PFN lost: %d", e.PFN)
	}
	if mapped(tb) != 0 {
		t.Fatalf("mapped = %d", mapped(tb))
	}
}

func TestMappedCountAcrossTransitions(t *testing.T) {
	tb := New()
	tb.Map(0x1000, 1, Present)
	tb.Map(0x1000, 2, Present) // remap: count stays 1
	if mapped(tb) != 1 {
		t.Fatalf("mapped = %d after remap", mapped(tb))
	}
	tb.Map(0x1000, 2, 0) // map non-present over present
	if mapped(tb) != 0 {
		t.Fatalf("mapped = %d after downgrade", mapped(tb))
	}
	tb.Update(0x1000, func(e *Entry) { e.Flags |= Present })
	if mapped(tb) != 1 {
		t.Fatalf("mapped = %d after setting Present", mapped(tb))
	}
}

func TestFlagsString(t *testing.T) {
	if s := (Present | MPBT).String(); s != "P|MPBT" {
		t.Fatalf("String = %q", s)
	}
	if s := Flags(0).String(); s != "0" {
		t.Fatalf("String = %q", s)
	}
}

func TestSparseDirectories(t *testing.T) {
	tb := New()
	// Map pages in widely separated directories.
	addrs := []uint32{0x0000_1000, 0x4000_0000, 0x8000_0000, 0xffc0_0000}
	for i, a := range addrs {
		tb.Map(a, uint32(i+1), Present)
	}
	for i, a := range addrs {
		e, ok := tb.Lookup(a)
		if !ok || e.PFN != uint32(i+1) {
			t.Fatalf("addr %#x: entry %+v ok=%v", a, e, ok)
		}
	}
	if mapped(tb) != len(addrs) {
		t.Fatalf("mapped = %d", mapped(tb))
	}
}

// Property: a map followed by a lookup anywhere in the page returns the
// mapped frame, and distinct pages never alias.
func TestMapLookupProperty(t *testing.T) {
	f := func(vpnA, vpnB uint32, pfnA, pfnB uint32, off uint16) bool {
		vpnA &= 0xfffff
		vpnB &= 0xfffff
		if vpnA == vpnB {
			return true
		}
		tb := New()
		tb.Map(vpnA<<PageShift, pfnA, Present)
		tb.Map(vpnB<<PageShift, pfnB, Present)
		o := uint32(off) % PageSize
		ea, _ := tb.Lookup(vpnA<<PageShift | o)
		eb, _ := tb.Lookup(vpnB<<PageShift | o)
		return ea.PFN == pfnA && eb.PFN == pfnB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mapped counts tb's present entries.
func mapped(tb *Table) int {
	n := 0
	for _, tab := range tb.dir {
		if tab != nil {
			for _, e := range tab {
				if e.Flags.Has(Present) {
					n++
				}
			}
		}
	}
	return n
}
