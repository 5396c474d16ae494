package gic

import "testing"

func TestRaiseClaim(t *testing.T) {
	g := New(48)
	if g.Pending(30) {
		t.Fatal("fresh controller pending")
	}
	g.Raise(0, 30)
	if !g.Pending(30) {
		t.Fatal("raise not recorded")
	}
	from, ok := g.Claim(30)
	if !ok || from != 0 {
		t.Fatalf("claim = (%d, %v)", from, ok)
	}
	if g.Pending(30) {
		t.Fatal("claim did not clear the bit")
	}
	if _, ok := g.Claim(30); ok {
		t.Fatal("claim of empty status succeeded")
	}
}

func TestRaiseIdempotent(t *testing.T) {
	g := New(48)
	g.Raise(5, 7)
	g.Raise(5, 7)
	if _, ok := g.Claim(7); !ok {
		t.Fatal("first claim failed")
	}
	if _, ok := g.Claim(7); ok {
		t.Fatal("double raise produced two claims (status is a bit, not a counter)")
	}
}

func TestClaimOrderIsAscending(t *testing.T) {
	g := New(48)
	g.Raise(9, 3)
	g.Raise(2, 3)
	g.Raise(40, 3)
	var got []int
	for {
		f, ok := g.Claim(3)
		if !ok {
			break
		}
		got = append(got, f)
	}
	want := []int{2, 9, 40}
	if len(got) != len(want) {
		t.Fatalf("claims = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claims = %v, want %v", got, want)
		}
	}
}

func TestClaimAll(t *testing.T) {
	g := New(48)
	g.Raise(1, 0)
	g.Raise(47, 0)
	all := g.ClaimAll(0, nil)
	if len(all) != 2 || all[0] != 1 || all[1] != 47 {
		t.Fatalf("ClaimAll = %v", all)
	}
	if g.Pending(0) {
		t.Fatal("ClaimAll left pending bits")
	}
	if got := g.ClaimAll(0, all[:0]); len(got) != 0 {
		t.Fatalf("second ClaimAll = %v, want empty", got)
	}
	// A reused buffer takes the next claim in place.
	g.Raise(5, 0)
	if got := g.ClaimAll(0, all[:0]); len(got) != 1 || got[0] != 5 || &got[0] != &all[0] {
		t.Fatalf("ClaimAll into a reused buffer = %v", got)
	}
}

func TestTargetsIndependent(t *testing.T) {
	g := New(4)
	g.Raise(0, 1)
	if g.Pending(2) {
		t.Fatal("raise leaked to another target")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cores accepted")
		}
	}()
	New(0)
}

// TestMultiWordStatus exercises core counts past one status word: interrupt
// state is sized from the configured core count, so a 512-core machine gets
// eight words per core and origins above 63 survive the round trip.
func TestMultiWordStatus(t *testing.T) {
	g := New(512)
	if g.Cores() != 512 {
		t.Fatalf("Cores() = %d", g.Cores())
	}
	g.Raise(511, 0)
	g.Raise(64, 0)
	g.Raise(63, 0)
	if !g.Pending(0) {
		t.Fatal("high-origin raise not recorded")
	}
	var got []int
	for {
		f, ok := g.Claim(0)
		if !ok {
			break
		}
		got = append(got, f)
	}
	want := []int{63, 64, 511}
	if len(got) != len(want) {
		t.Fatalf("claims = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claims = %v, want %v", got, want)
		}
	}
	g.Raise(100, 200)
	g.Raise(500, 200)
	all := g.ClaimAll(200, nil)
	if len(all) != 2 || all[0] != 100 || all[1] != 500 {
		t.Fatalf("ClaimAll = %v", all)
	}
	if g.Pending(200) {
		t.Fatal("ClaimAll left pending bits")
	}
}
