package racecheck

// vclock is a vector clock over the chip's cores: vclock[c] is the latest
// clock value of core c that the clock's owner has synchronized with.
type vclock []uint32

func newVClock(n int) vclock { return make(vclock, n) }

// join folds b into a (pointwise max).
func (a vclock) join(b vclock) {
	for i, v := range b {
		if v > a[i] {
			a[i] = v
		}
	}
}

// epoch is one core's scalar clock value — the FastTrack compression of a
// full vector for the common single-accessor case. The zero epoch means
// "no access recorded" (core clocks start at 1).
type epoch struct {
	clock uint32
	core  int32
}

// before reports whether the epoch happens-before (or is) the time
// represented by vc — i.e. the accessing core has synchronized with the
// epoch's segment.
func (e epoch) before(vc vclock) bool { return e.clock <= vc[e.core] }
