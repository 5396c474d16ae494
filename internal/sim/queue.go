package sim

import "math/bits"

// The engine's pending-event set, dispatched in the total order (time,
// insertion sequence): radixQueue, a monotone radix heap. It relies on the
// one property the engine guarantees, that nothing is scheduled before the
// time of the last dispatched event, and in exchange a push is O(1) and no
// pop sifts past the far-future records (kernel deadlines, timer ticks) that
// make up most of a deep queue. Records live in one slab linked by index, so
// a steady schedule/dispatch cycle allocates nothing. TestQueueEquivalence
// drives it against a plain binary heap and a sorted-slice oracle.

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
// same bucket (or on the free list). Index 0 is never a node, so 0 ends a
// list and the zero radixQueue is ready to use.
type node struct {
	ev   event
	next int32
}

// bucket is a singly linked list of nodes in push order, with the smallest
// timestamp among them.
type bucket struct {
	head, tail int32 // head 0: empty (tail is then stale)
	min        Time
}

// radixQueue holds events not yet dispatched. An event at time at sits in
// bucket bits.Len64(at ^ last), where last is the time of the last popped
// event and no pending event is earlier. Bucket 0 therefore holds exactly
// the events at last, and every key in bucket b is below every key in
// bucket b+1 (they share last's bits above bit b-1 and differ from each
// other first there). Pops take bucket 0's head. When bucket 0 is empty,
// the lowest non-empty bucket is redistributed about its minimum, which
// becomes last; its events all land in lower buckets, which are empty.
//
// Every bucket is in sequence order: a push appends the largest sequence
// number so far, and a redistribution walks its bucket in order into empty
// buckets. Bucket 0, all at one timestamp, thus pops in exact (time, seq)
// order.
//
// headTime reads the minimum without redistributing: a Sync that runs
// through sets the engine clock below the head without a pop and may then
// schedule there, so last must stay at the last popped time.
type radixQueue struct {
	last    Time
	full    uint64 // bit b-1 set while bucket b (1..64) is non-empty
	n       int
	free    int32  // free list of slab nodes
	nodes   []node // the slab; nodes[0] is unused
	buckets [65]bucket
}

func (q *radixQueue) len() int { return q.n }

// push inserts ev, which must not be earlier than the last popped event.
func (q *radixQueue) push(ev event) {
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
	nd.next = 0
	q.link(i, ev.at)
	q.n++
}

// link appends node i, at time at and with next 0, to its bucket.
func (q *radixQueue) link(i int32, at Time) {
	b := bits.Len64(uint64(at ^ q.last))
	bk := &q.buckets[b]
	if bk.head == 0 {
		bk.head, bk.min = i, at
		if b > 0 {
			q.full |= 1 << (b - 1)
		}
	} else {
		q.nodes[bk.tail].next = i
		if at < bk.min {
			bk.min = at
		}
	}
	bk.tail = i
}

// headTime returns the time of the next event to dispatch.
func (q *radixQueue) headTime() (Time, bool) {
	if q.buckets[0].head != 0 {
		return q.last, true
	}
	if q.full == 0 {
		return 0, false
	}
	return q.buckets[bits.TrailingZeros64(q.full)+1].min, true
}

// pop removes the next event into *ev. Filling the caller's record instead
// of returning one spares the dispatch loop a copy of the returned struct
// through a spill slot, which stalls store forwarding.
func (q *radixQueue) pop(ev *event) {
	b0 := &q.buckets[0]
	if b0.head == 0 {
		q.redistribute()
	}
	i := b0.head
	nd := &q.nodes[i]
	*ev = nd.ev
	b0.head = nd.next
	*nd = node{next: q.free} // drop the fn and proc references
	q.free = i
	q.n--
}

// redistribute moves the lowest non-empty bucket down about its minimum,
// which becomes last. Bucket 0 must be empty.
func (q *radixQueue) redistribute() {
	b := bits.TrailingZeros64(q.full) + 1
	q.full &^= 1 << (b - 1)
	bk := &q.buckets[b]
	q.last = bk.min
	i := bk.head
	bk.head = 0
	for i != 0 {
		nd := &q.nodes[i]
		next := nd.next
		nd.next = 0
		q.link(i, nd.ev.at)
		i = next
	}
}
