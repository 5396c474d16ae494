package sim

import "math/bits"

// The engine's pending-event set, dispatched in the total order (time,
// insertion sequence): eventQueue, a queue of two tiers. It relies on the
// one property the engine guarantees, that nothing is scheduled before the
// engine clock, which is never behind the last dispatched event.
//
// The near tier is a lap of lapBuckets fixed-width time buckets starting at
// base, a calendar in the sense of Brown's calendar queues (CACM 1988). Most
// of what the engine schedules, a mail slot probe, a test-and-set retry or a
// charged MPB access, lands a few hundred nanoseconds ahead, inside the
// lap, and is dispatched from its bucket without ever moving. The far tier
// is a monotone radix heap holding only events at or past the lap's end:
// timer ticks, rescue deadlines and retransmit timers. When the lap runs
// dry, the next lap opens at the heap's minimum and the heap hands over, in
// order, the events that fall inside it. A pop that empties the lap while
// no far event lies within a lap of it moves the lap to start at the popped
// time instead, so that a shallow queue's next pushes land in buckets
// rather than in the heap.
//
// Three invariants keep dispatch exactly (time, seq):
//
//  1. Every far event is at or past the lap's end, base+lapLen. A push
//     below it goes to its bucket, and opening a lap moves every far event
//     below the new end into the buckets.
//  2. The lap never starts ahead of the engine clock: a lap opens or moves
//     only in pop, at the time of the event being popped, so base <= the last
//     popped time <= the clock <= every later push. No push falls below
//     the lap. (Re-anchoring an empty lap at a pushed event's time breaks
//     this: a later push at the clock lands before the lap.)
//  3. A peek never opens a lap. A Sync that runs through sets the clock
//     below the peeked head without a pop and may then schedule there,
//     below the heap's minimum.
//
// Each bucket is a list in (time, seq) order, so its first node is its
// minimum; a push carries the largest sequence number so far and goes after
// every node not later than it (almost always the tail), and a handover
// moves the heap's nodes in the same way (see openLap). A two-level
// occupancy bitmap finds the next non-empty bucket. Records of both tiers
// live in one slab linked by index, so a steady schedule/dispatch cycle
// allocates nothing. TestQueueEquivalence drives it against a plain binary
// heap and a sorted-slice oracle.

// The lap's geometry: lapBuckets buckets of 2^bucketShift ps (about 4 ns)
// make a lap of about 4.2 µs. On BenchmarkQueueHold's deep and shallow
// subcases, drawn from the engine's recorded push histograms, laps of 512
// to 2 048 buckets of 2^11 to 2^13 ps all read within about 10 % of one
// another; this one keeps the bucket tails at 4 KB an engine.
const (
	bucketShift = 12
	lapBuckets  = 1024
	lapLen      = Time(lapBuckets) << bucketShift
)

type event struct {
	at  Time
	seq uint64
	fn  func()
	// Typed process wake (fn == nil): a start, a Sync wake or a Wake. It
	// resumes proc only if proc's wakeSeq still equals wakeSeq when popped.
	proc    *Proc
	wakeSeq uint64
}

// node is one slab slot: an event and the index of the next node in the
// same list (a bucket, a heap bucket or the free list). Index 0 is never a
// node, so 0 ends a list and the zero eventQueue is ready to use.
type node struct {
	ev   event
	next int32
}

// heapBucket is a radix-heap bucket: a singly linked list of nodes in push
// order, with the smallest timestamp among them.
type heapBucket struct {
	head, tail int32 // head 0: empty (tail is then stale)
	min        Time
}

// eventQueue holds events not yet dispatched; the zero value is empty, with
// a lap at [0, lapLen).
//
// A near bucket is a circular list: tails[b] is its last node (0: empty)
// and that node's next is its first. One index a bucket keeps the lap's
// host memory at 4 KB an engine.
//
// The far tier is a radix heap: a far event at time at sits in farBuckets
// bits.Len64(at ^ farLast), where farLast is the time of the last event the
// heap handed over and no far event is earlier. farBuckets[0] holds exactly
// the events at farLast, and every key in bucket b is below every key in
// bucket b+1. Every heap bucket is in sequence order: a push appends the
// largest sequence number so far, and a redistribution walks its bucket in
// order into empty buckets.
type eventQueue struct {
	head  Time   // time of the earliest pending event, when there is one
	cur   int    // the bucket of head, while near > 0
	near  int    // events in the lap
	base  Time   // the lap spans [base, base+lapLen)
	free  int32  // free list of slab nodes
	nodes []node // the slab; nodes[0] is unused

	farN    int
	farLast Time
	farFull uint64 // bit b-1 set while farBuckets[b] (1..64) is non-empty

	summary    uint64 // bit w set while words[w] is non-zero
	words      [lapBuckets / 64]uint64
	tails      [lapBuckets]int32
	farBuckets [65]heapBucket
}

func (q *eventQueue) len() int { return q.near + q.farN }

// headTime returns the time of the next event to dispatch. It reads a
// cached minimum and opens no lap (invariant 3).
func (q *eventQueue) headTime() (Time, bool) {
	return q.head, q.near+q.farN != 0
}

// push inserts ev, which must not be earlier than the engine clock.
func (q *eventQueue) push(ev event) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, node{})
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	// Field by field: a whole-struct copy reads ev's spilled register
	// arguments back 16 bytes at a time, which stalls store forwarding.
	nd := &q.nodes[i]
	nd.ev.at, nd.ev.seq, nd.ev.fn = ev.at, ev.seq, ev.fn
	nd.ev.proc, nd.ev.wakeSeq = ev.proc, ev.wakeSeq
	if !q.appendNear(i, ev.at) {
		q.link(i, ev.at)
	}
}

// appendNear is push's fast path: node i, at time at, goes at the tail of a
// non-empty bucket of the lap whose last node is not later than it. Such a
// push never changes the head. It reports false, and does nothing, when
// the push needs link.
func (q *eventQueue) appendNear(i int32, at Time) bool {
	off := at - q.base
	if off >= lapLen {
		return false
	}
	b := off >> bucketShift
	t := q.tails[b]
	if t == 0 || at < q.nodes[t].ev.at {
		return false
	}
	q.nodes[i].next = q.nodes[t].next
	q.nodes[t].next = i
	q.tails[b] = i
	q.near++
	return true
}

// link is push's slow path: node i goes to the far tier, to an empty
// bucket, or inside a bucket whose tail is later than at.
func (q *eventQueue) link(i int32, at Time) {
	off := at - q.base
	if off >= lapLen {
		if q.near == 0 && (q.farN == 0 || at < q.head) {
			q.head = at
		}
		q.nodes[i].next = 0
		q.farLink(i, at)
		q.farN++
		return
	}
	b := int(off >> bucketShift)
	q.insert(i, at, b)
	if q.near == 0 || at < q.head {
		q.head, q.cur = at, b
	}
	q.near++
}

// insert links node i, at time at, into near bucket b after every node not
// later than it, which is in (time, seq) order when i's sequence number is
// the largest among the bucket's nodes at its time.
func (q *eventQueue) insert(i int32, at Time, b int) {
	t := q.tails[b]
	switch {
	case t == 0:
		q.nodes[i].next = i
		q.tails[b] = i
		q.words[b>>6] |= 1 << (b & 63)
		q.summary |= 1 << (b >> 6)
	case at >= q.nodes[t].ev.at:
		q.nodes[i].next = q.nodes[t].next
		q.nodes[t].next = i
		q.tails[b] = i
	default:
		// The tail is later, so the walk stops before it.
		prev, j := t, q.nodes[t].next
		for q.nodes[j].ev.at <= at {
			prev, j = j, q.nodes[j].next
		}
		q.nodes[i].next = j
		q.nodes[prev].next = i
	}
}

// pop removes the next event into *ev. Filling the caller's record instead
// of returning one spares the dispatch loop a copy of the returned struct
// through a spill slot, which stalls store forwarding. When ev was the
// lap's last event and the far tier holds nothing before ev.at+lapLen, the
// empty lap moves to start at ev.at (invariants 1 and 2 both hold there).
func (q *eventQueue) pop(ev *event) {
	if q.near == 0 {
		q.openLap()
	}
	b := q.cur
	t := q.tails[b]
	h := q.nodes[t].next
	nd := &q.nodes[h]
	*ev = nd.ev
	next := nd.next
	*nd = node{next: q.free} // drop the fn and proc references
	q.free = h
	q.near--
	if h != t {
		q.nodes[t].next = next
		q.head = q.nodes[next].ev.at
		return
	}
	q.tails[b] = 0
	w := b >> 6
	q.words[w] &^= 1 << (b & 63)
	if q.words[w] == 0 {
		q.summary &^= 1 << w
	}
	if q.near > 0 {
		q.cur = q.nextBucket(b)
		q.head = q.nodes[q.nodes[q.tails[q.cur]].next].ev.at
		return
	}
	if q.farN > 0 {
		q.head = q.farHead()
		if q.head-ev.at < lapLen {
			return
		}
	}
	q.base = ev.at
}

// nextBucket returns the first non-empty bucket after b; there must be one.
func (q *eventQueue) nextBucket(b int) int {
	w := b >> 6
	if m := q.words[w] &^ (1<<(b&63+1) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	w = bits.TrailingZeros64(q.summary &^ (1<<(w+1) - 1))
	return w<<6 + bits.TrailingZeros64(q.words[w])
}

// openLap starts the next lap at the far tier's minimum, the event about
// to be popped, and hands over every far event before the new lap's end
// (invariant 1). The lap must be empty and the far tier not.
//
// It takes the heap's buckets lowest first. A bucket whose whole key range
// lies before the lap's end moves into the lap node by node, each after
// every node not later than it: keys rise from one heap bucket to the next,
// and events at one time share a heap bucket in sequence order, so the lap
// ends up in (time, seq) order. The bucket that straddles the lap's end is
// redistributed about its minimum first.
func (q *eventQueue) openLap() {
	q.base = q.head
	for q.farN > 0 {
		b := 0
		if q.farBuckets[0].head == 0 {
			b = bits.TrailingZeros64(q.farFull) + 1
		}
		bk := &q.farBuckets[b]
		if bk.min-q.base >= lapLen {
			break
		}
		// Bucket b's keys share farLast's bits from bit b up.
		if (q.farLast|(1<<b-1))-q.base >= lapLen {
			q.redistribute()
			continue
		}
		if b > 0 {
			q.farFull &^= 1 << (b - 1)
		}
		for i := bk.head; i != 0; {
			next, at := q.nodes[i].next, q.nodes[i].ev.at
			q.insert(i, at, int((at-q.base)>>bucketShift))
			q.near++
			q.farN--
			i = next
		}
		bk.head = 0
	}
	q.cur = 0
}

// farLink appends node i, at time at and with next 0, to its heap bucket.
func (q *eventQueue) farLink(i int32, at Time) {
	b := bits.Len64(uint64(at ^ q.farLast))
	bk := &q.farBuckets[b]
	if bk.head == 0 {
		bk.head, bk.min = i, at
		if b > 0 {
			q.farFull |= 1 << (b - 1)
		}
	} else {
		q.nodes[bk.tail].next = i
		if at < bk.min {
			bk.min = at
		}
	}
	bk.tail = i
}

// farHead returns the far tier's minimum without redistributing; the far
// tier must not be empty.
func (q *eventQueue) farHead() Time {
	if q.farBuckets[0].head != 0 {
		return q.farLast
	}
	return q.farBuckets[bits.TrailingZeros64(q.farFull)+1].min
}

// redistribute moves the lowest non-empty heap bucket down about its
// minimum, which becomes farLast. Heap bucket 0 must be empty.
func (q *eventQueue) redistribute() {
	b := bits.TrailingZeros64(q.farFull) + 1
	q.farFull &^= 1 << (b - 1)
	bk := &q.farBuckets[b]
	q.farLast = bk.min
	i := bk.head
	bk.head = 0
	for i != 0 {
		nd := &q.nodes[i]
		next := nd.next
		nd.next = 0
		q.farLink(i, nd.ev.at)
		i = next
	}
}
