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

func TestSetFlagsInvalidatesTLB(t *testing.T) {
	tb := New()
	tb.Map(0x2000, 5, Present|Writable)
	// Prime the translation cache.
	if e, _ := tb.Lookup(0x2000); !e.Flags.Has(Writable) {
		t.Fatal("setup")
	}
	tb.SetFlags(0x2000, 0, Writable)
	e, _ := tb.Lookup(0x2000)
	if e.Flags.Has(Writable) {
		t.Fatal("stale translation cache: Writable still visible")
	}
	tb.SetFlags(0x2000, Writable, 0)
	e, _ = tb.Lookup(0x2000)
	if !e.Flags.Has(Writable) {
		t.Fatal("set Writable not visible")
	}
}

func TestSetFlagsUnmappedPanics(t *testing.T) {
	tb := New()
	defer func() {
		if recover() == nil {
			t.Fatal("flag change of unmapped page did not panic")
		}
	}()
	tb.SetFlags(0x5000, Present, 0)
}

func TestNonPresentEntryPreserved(t *testing.T) {
	// The strong model clears Present on revoked pages but keeps the PFN so
	// a later re-acquire doesn't need the scratchpad again.
	tb := New()
	tb.Map(0x3000, 42, Present|Writable)
	tb.SetFlags(0x3000, 0, Present|Writable)
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
	tb.SetFlags(0x1000, Present, 0)
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

// mapped counts tb's present explicit entries.
func mapped(tb *Table) int {
	n := 0
	for _, e := range tb.entries {
		if e.Flags.Has(Present) {
			n++
		}
	}
	return n
}

// TestIdentityWindow: every page of the window translates to its identity
// frame, Present|Writable|WriteThrough, which is what mapping the pages one
// by one installed; explicit entries above the window are unaffected; and a
// Map, Unmap or flag change inside the window panics.
func TestIdentityWindow(t *testing.T) {
	const pages, base = 4096, 0x5000
	tb := New()
	tb.Map(0x8000_0000, 9, Present|WriteThrough|MPBT)
	v := tb.Version()
	tb.Identity(pages, base)
	if tb.Version() == v {
		t.Fatal("Identity did not change the version")
	}
	for vpn := uint32(0); vpn < pages; vpn++ {
		e, ok := tb.Lookup(vpn<<PageShift | vpn%PageSize)
		if want := (Entry{PFN: base + vpn, Flags: Present | Writable | WriteThrough}); !ok || e != want {
			t.Fatalf("page %d: %+v ok=%v, want %+v", vpn, e, ok, want)
		}
	}
	if _, ok := tb.Lookup(pages << PageShift); ok {
		t.Fatal("the page past the window has an entry")
	}
	if e, ok := tb.Lookup(0x8000_0000); !ok || e != (Entry{PFN: 9, Flags: Present | WriteThrough | MPBT}) {
		t.Fatalf("explicit entry = %+v ok=%v", e, ok)
	}
	if mapped(tb) != 1 {
		t.Fatalf("mapped = %d: the window stored entries", mapped(tb))
	}
	for name, write := range map[string]func(){
		"Map":      func() { tb.Map(0x1000, 1, Present) },
		"Unmap":    func() { tb.Unmap((pages - 1) << PageShift) },
		"SetFlags": func() { tb.SetFlags(0, 0, Writable) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s inside the window did not panic", name)
				}
			}()
			write()
		}()
	}
}

// TestWarmCycleAllocatesNothing: once a page has been mapped, mapping it
// again, changing its flags, unmapping and remapping it allocate nothing.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	tb := New()
	tb.Identity(16, 100)
	const v = 0x8000_0000
	tb.Map(v, 7, Present|Writable)
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Map(v, 7, Present|Writable|WriteThrough)
		tb.SetFlags(v, MPBT, Writable)
		tb.Unmap(v)
		tb.Map(v, 8, Present)
		if e, ok := tb.Lookup(v); !ok || e.PFN != 8 {
			t.Fatalf("lookup = %+v ok=%v", e, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Map/SetFlags/Unmap/Map cycle allocated %v times", allocs)
	}
}
