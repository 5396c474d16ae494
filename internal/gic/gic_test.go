package gic

import (
	"slices"
	"testing"
)

func TestRaiseClaim(t *testing.T) {
	g := New(48)
	if got := g.ClaimAll(30, nil); len(got) != 0 {
		t.Fatalf("fresh controller pending: %v", got)
	}
	g.Raise(0, 30)
	if got := g.ClaimAll(30, nil); !slices.Equal(got, []int{0}) {
		t.Fatalf("claim = %v, want [0]", got)
	}
	if got := g.ClaimAll(30, nil); len(got) != 0 {
		t.Fatalf("claim did not clear the bit: second claim = %v", got)
	}
}

func TestRaiseIdempotent(t *testing.T) {
	g := New(48)
	g.Raise(5, 7)
	g.Raise(5, 7)
	if got := g.ClaimAll(7, nil); !slices.Equal(got, []int{5}) {
		t.Fatalf("claim = %v, want [5] (status is a bit, not a counter)", got)
	}
	if got := g.ClaimAll(7, nil); len(got) != 0 {
		t.Fatalf("second claim = %v, want empty", got)
	}
}

func TestClaimOrderIsAscending(t *testing.T) {
	g := New(48)
	g.Raise(9, 3)
	g.Raise(2, 3)
	g.Raise(40, 3)
	if got, want := g.ClaimAll(3, nil), []int{2, 9, 40}; !slices.Equal(got, want) {
		t.Fatalf("claims = %v, want %v", got, want)
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
	if got := g.ClaimAll(0, all[:0]); len(got) != 0 {
		t.Fatalf("ClaimAll left pending bits: second ClaimAll = %v", got)
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
	if got := g.ClaimAll(2, nil); len(got) != 0 {
		t.Fatalf("raise leaked to another target: %v", got)
	}
	if got := g.ClaimAll(1, nil); !slices.Equal(got, []int{0}) {
		t.Fatalf("target's claim = %v, want [0]", got)
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
	if g.cores != 512 {
		t.Fatalf("Cores() = %d", g.cores)
	}
	g.Raise(511, 0)
	g.Raise(64, 0)
	g.Raise(63, 0)
	if got, want := g.ClaimAll(0, nil), []int{63, 64, 511}; !slices.Equal(got, want) {
		t.Fatalf("claims = %v, want %v", got, want)
	}
	g.Raise(100, 200)
	g.Raise(500, 200)
	all := g.ClaimAll(200, nil)
	if len(all) != 2 || all[0] != 100 || all[1] != 500 {
		t.Fatalf("ClaimAll = %v", all)
	}
	if got := g.ClaimAll(200, nil); len(got) != 0 {
		t.Fatalf("ClaimAll left pending bits: %v", got)
	}
}
