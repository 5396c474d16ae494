package svm

import (
	"sort"
	"testing"

	"metalsvm/internal/pgtable"
)

// lockRound has every member enter the critical section of its own lock id
// once, after a common barrier, and reports the largest number of cores that
// were inside at the same time. A panic on the way (the id reaching the mesh
// unnormalised, or Unlock finding another holder) fails the test instead of
// killing the binary.
func lockRound(t *testing.T, ids map[int]int) (maxInside int) {
	t.Helper()
	members := make([]int, 0, len(ids))
	for id := range ids {
		members = append(members, id)
	}
	sort.Ints(members)
	r := newRig(t, DefaultConfig(LazyRelease), members)
	inside := 0
	mains := map[int]func(*Handle){}
	for _, m := range members {
		lock := ids[m]
		mains[m] = func(h *Handle) {
			h.Alloc(pgtable.PageSize) // ends in a barrier: everyone competes at once
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("core %d, lock id %d: %v", h.Kernel().ID(), lock, p)
					}
				}()
				h.Lock(lock)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				h.Kernel().Core().Cycles(20_000) // several quanta: a second entrant would interleave
				inside--
				h.Unlock(lock)
			}()
			h.Barrier()
		}
	}
	r.run(t, mains)
	return maxInside
}

// A negative lock id names a lock word like any other (the word index is the
// id modulo LockCount, normalised): it must not reach the mesh as a negative
// test-and-set register.
func TestLockNegativeID(t *testing.T) {
	if got := lockRound(t, map[int]int{0: -1, 1: -1}); got != 1 {
		t.Fatalf("%d cores inside lock -1 at once, want 1", got)
	}
}

// Ids that alias to one lock word must also share its guard register: 0 and
// 256 are the same word, but id%48 guarded them with registers 0 and 16, so
// both cores found the word free and entered.
func TestLockAliasedIDsExclude(t *testing.T) {
	if got := lockRound(t, map[int]int{0: 0, 1: LockCount}); got != 1 {
		t.Fatalf("%d cores inside the critical section of lock word 0 at once, want 1", got)
	}
	if lockWord(-1) != LockCount-1 || lockWord(LockCount+7) != 7 || lockWord(11) != 11 {
		t.Fatalf("lockWord: -1→%d, %d→%d, 11→%d", lockWord(-1), LockCount+7, lockWord(LockCount+7), lockWord(11))
	}
}
