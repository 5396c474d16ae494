package gic

import (
	"math/rand/v2"
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

// TestClaimAllMatchesPerBitLoop checks the set-bit walk against the per-bit
// loop it replaced, on a 1 024-core controller (16 status words a core)
// with origins spread over several words, word edges and the last origin
// included: the same ascending list, and every word cleared.
func TestClaimAllMatchesPerBitLoop(t *testing.T) {
	const cores = 1024
	g := New(cores)
	rng := rand.New(rand.NewPCG(1, 1024))
	for round := 0; round < 200; round++ {
		target := rng.IntN(cores)
		want := map[int]bool{}
		for _, f := range []int{0, 63, 64, 511, 512, cores - 1} {
			if rng.IntN(2) == 0 {
				want[f] = true
			}
		}
		for n := rng.IntN(40); n > 0; n-- {
			want[rng.IntN(cores)] = true
		}
		for f := range want {
			g.Raise(f, target)
		}
		// The per-bit loop over a copy of the target's status words.
		var ref []int
		for w, word := range slices.Clone(g.set(target)) {
			for b := 0; b < 64; b++ {
				if word&(1<<uint(b)) != 0 {
					ref = append(ref, w*64+b)
				}
			}
		}
		if len(ref) != len(want) {
			t.Fatalf("round %d: status holds %d origins, raised %d", round, len(ref), len(want))
		}
		if got := g.ClaimAll(target, nil); !slices.Equal(got, ref) {
			t.Fatalf("round %d: ClaimAll = %v, per-bit loop = %v", round, got, ref)
		}
		if got := g.ClaimAll(target, nil); len(got) != 0 {
			t.Fatalf("round %d: ClaimAll left pending bits: %v", round, got)
		}
	}
}
