package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// queueHarness feeds eventQueue and refQueue the same pushes and checks
// every peek and pop of both against a sorted-slice oracle. now follows the
// engine's rules: a pop moves it to the popped event's time, and a
// run-through may move it forward, below the head, without a pop.
type queueHarness struct {
	t      *testing.T
	name   string
	fast   eventQueue
	ref    refQueue
	oracle []event
	now    Time
	seq    uint64
	marks  []Time // far times a case pushes again once they are near
}

// lapEnd is the end of eventQueue's current lap: the far tier holds
// exactly the events at or past it (invariant 1).
func (h *queueHarness) lapEnd() Time { return h.fast.base + lapLen }

func (h *queueHarness) push(at Time) {
	h.seq++
	ev := event{at: at, seq: h.seq}
	h.fast.push(ev)
	h.ref.push(ev)
	// Keep the oracle sorted: ev goes after every event not later than it.
	k := sort.Search(len(h.oracle), func(k int) bool { return h.oracle[k].at > at })
	h.oracle = append(h.oracle, event{})
	copy(h.oracle[k+1:], h.oracle[k:])
	h.oracle[k] = ev
}

// head checks both queues' next event against the oracle's and returns it.
func (h *queueHarness) head() (event, bool) {
	h.t.Helper()
	fh, okF := h.fast.headTime()
	rh, okR := h.ref.head()
	if len(h.oracle) == 0 {
		if okF || okR {
			h.t.Fatalf("%s: head of an empty queue: fast=%v(%v) ref=%v(%v)", h.name, fh, okF, rh, okR)
		}
		return event{}, false
	}
	want := h.oracle[0]
	if !okF || !okR || fh != want.at || !sameEvent(rh, want) {
		h.t.Fatalf("%s: head fast=%v(%v) ref=%v(%v), want %v", h.name, fh, okF, rh, okR, want)
	}
	return want, true
}

func (h *queueHarness) pop() {
	h.t.Helper()
	want, _ := h.head()
	h.oracle = h.oracle[1:]
	fp, rp := popEvent(&h.fast), h.ref.pop()
	if !sameEvent(fp, want) || !sameEvent(rp, want) {
		h.t.Fatalf("%s: pop fast=%v ref=%v, want %v", h.name, fp, rp, want)
	}
	if fp.at < h.now {
		h.t.Fatalf("%s: time went backwards: %d < %d", h.name, fp.at, h.now)
	}
	h.now = fp.at
}

func (h *queueHarness) drain() {
	h.t.Helper()
	for len(h.oracle) > 0 {
		h.pop()
	}
	if h.fast.len() != 0 || h.ref.len() != 0 {
		h.t.Fatalf("%s: queues not drained: fast=%d ref=%d", h.name, h.fast.len(), h.ref.len())
	}
}

// runThrough is Proc.Sync's no-park path: the clock jumps forward to a time
// strictly before the head (anywhere, on an empty queue) and takes a
// sequence number without a push.
func (h *queueHarness) runThrough(rng *rand.Rand) {
	h.t.Helper()
	to := h.now + Time(rng.Intn(1000))
	if head, ok := h.head(); ok {
		if head.at == h.now {
			return // the wake would not be first: Sync parks
		}
		to = h.now + Time(rng.Int63n(int64(head.at-h.now)))
	}
	h.seq++
	h.now = to
}

// bucketWidth is one near bucket's span in ps.
const bucketWidth = Time(1) << bucketShift

// nearOrNow is the engine's dominant pattern: half at the current instant.
func nearOrNow(rng *rand.Rand) Time {
	if rng.Intn(2) == 0 {
		return 0
	}
	return Time(rng.Intn(100))
}

// TestQueueEquivalence drives eventQueue and refQueue with identical
// randomized workloads (fixed seed: the test itself is deterministic) and
// checks both against a sorted-slice oracle at every peek and pop. The
// cases from lap-edge on aim at queue.go's three invariants: every far
// event is at or past the lap's end, the lap never starts ahead of the
// clock, and a peek never opens a lap.
func TestQueueEquivalence(t *testing.T) {
	cases := []struct {
		name string
		step func(h *queueHarness, rng *rand.Rand)
	}{
		// Pushes at or near the clock, the engine's common case.
		{"near", func(h *queueHarness, rng *rand.Rand) {
			if len(h.oracle) == 0 || rng.Intn(3) != 0 {
				h.push(h.now + nearOrNow(rng))
			} else {
				h.pop()
			}
		}},
		// Far-future records (deadlines, ticks) from 2^29 to 2^40 ps out,
		// mixed with near ones: redistribution crosses many buckets.
		{"far", func(h *queueHarness, rng *rand.Rand) {
			switch {
			case len(h.oracle) > 0 && rng.Intn(3) == 0:
				h.pop()
			case rng.Intn(4) == 0:
				h.push(h.now + 1<<29 + Time(rng.Int63n(1<<40-1<<29)))
			default:
				h.push(h.now + nearOrNow(rng))
			}
		}},
		// Sync's run-through: the clock advances without a pop, then
		// pushes land at the new now, below the head that was peeked.
		{"run-through", func(h *queueHarness, rng *rand.Rand) {
			switch r := rng.Intn(6); {
			case r == 0:
				h.runThrough(rng)
			case r == 1 && len(h.oracle) > 0:
				h.pop()
			case r == 2:
				h.push(h.now + 1<<29 + Time(rng.Int63n(1<<32)))
			default:
				h.push(h.now + nearOrNow(rng)*Time(rng.Intn(1000)))
			}
		}},
		// RunUntil's limit: peek a head past the limit, dispatch nothing,
		// and let the caller schedule more before the next run.
		{"limit", func(h *queueHarness, rng *rand.Rand) {
			limit := h.now + Time(rng.Intn(200))
			if head, ok := h.head(); ok && head.at <= limit {
				h.pop()
				return
			}
			for n := rng.Intn(3); n >= 0; n-- {
				d := nearOrNow(rng) * 3
				if rng.Intn(5) == 0 {
					d = 1<<29 + Time(rng.Int63n(1<<30))
				}
				h.push(h.now + d)
			}
		}},
		// The lap's last picosecond and its end: the first goes to a
		// bucket, the second to the far tier (invariant 1).
		{"lap-edge", func(h *queueHarness, rng *rand.Rand) {
			end := h.lapEnd()
			switch r := rng.Intn(4); {
			case r == 0 && end-1 >= h.now:
				h.push(end - 1)
				h.push(end)
			case r == 1 && len(h.oracle) > 0:
				h.pop()
			default:
				h.push(h.now + Time(rng.Int63n(int64(lapLen))))
			}
		}},
		// A far event, then a near push at the same time once the lap has
		// reached it: the older sequence number pops first.
		{"far-then-near", func(h *queueHarness, rng *rand.Rand) {
			switch r := rng.Intn(4); {
			case r == 0:
				at := h.lapEnd() + Time(rng.Int63n(int64(lapLen)))
				h.push(at)
				h.marks = append(h.marks, at)
			case r == 1 && len(h.marks) > 0:
				k := rng.Intn(len(h.marks))
				if at := h.marks[k]; at >= h.now {
					h.push(at)
				}
			case len(h.oracle) > 0:
				h.pop()
			default:
				h.push(h.now + Time(rng.Intn(4096)))
			}
		}},
		// Pushes land inside one bucket in any order, so most are not the
		// bucket's latest: each needs the ordered insert.
		{"bucket-disorder", func(h *queueHarness, rng *rand.Rand) {
			if len(h.oracle) > 0 && rng.Intn(4) == 0 {
				h.pop()
				return
			}
			start := (h.now/bucketWidth + Time(rng.Intn(3))) * bucketWidth
			for n := rng.Intn(4); n >= 0; n-- {
				if at := start + Time(rng.Intn(int(bucketWidth))); at >= h.now {
					h.push(at)
				}
			}
		}},
		// A run-through to a bucket below the head's, then pushes there:
		// the head moves back to an earlier bucket without a pop.
		{"run-through-bucket", func(h *queueHarness, rng *rand.Rand) {
			switch r := rng.Intn(5); {
			case r == 0:
				h.runThrough(rng)
				h.push(h.now)
				h.push(h.now + Time(rng.Intn(int(bucketWidth))))
			case r == 1 && len(h.oracle) > 0:
				h.pop()
			default:
				h.push(h.now + Time(2+rng.Intn(30))*bucketWidth + Time(rng.Intn(int(bucketWidth))))
			}
		}},
		// The far tier's minimum T and events exactly at T+lapLen: the lap
		// that opens at T ends exactly at them, and they stay far.
		{"lap-open-at-end", func(h *queueHarness, rng *rand.Rand) {
			if len(h.oracle) > 0 && rng.Intn(3) != 0 {
				h.pop()
				return
			}
			at := h.lapEnd() + Time(rng.Intn(3))*lapLen + Time(rng.Intn(100))
			h.push(at)
			h.push(at + lapLen)
			h.push(at + lapLen)
			h.push(at + 2*lapLen)
		}},
		// RunUntil limits about the lap's end: peek a head past the limit,
		// dispatch nothing, and schedule below it on either side of the
		// lap's end. The peek must not have opened a lap (invariant 3).
		{"limit-lap", func(h *queueHarness, rng *rand.Rand) {
			limit := h.lapEnd() - 2*bucketWidth + Time(rng.Intn(int(4*bucketWidth)))
			if limit < h.now {
				limit = h.now
			}
			if head, ok := h.head(); ok && head.at <= limit {
				h.pop()
				return
			}
			if rng.Intn(2) == 0 {
				h.runThrough(rng)
			}
			for n := rng.Intn(3); n >= 0; n-- {
				h.push(h.now + Time(rng.Int63n(int64(2*lapLen))))
			}
		}},
		// Every delay is at least one lap: each event reaches a bucket only
		// through a handover.
		{"far-only", func(h *queueHarness, rng *rand.Rand) {
			if len(h.oracle) > 0 && rng.Intn(2) == 0 {
				h.pop()
				return
			}
			h.push(h.now + lapLen + Time(rng.Int63n(int64(4*lapLen))))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for trial := 0; trial < 50; trial++ {
				h := &queueHarness{t: t, name: fmt.Sprintf("trial %d", trial)}
				for op := 0; op < 400; op++ {
					c.step(h, rng)
				}
				h.drain()
			}
		})
	}
}

// TestQueueAllocFree holds a warm push/pop cycle at zero allocations: the
// slab recycles the popped node.
func TestQueueAllocFree(t *testing.T) {
	var q eventQueue
	var now Time
	var seq uint64
	for i := 0; i < 1024; i++ {
		seq++
		q.push(event{at: Time(i * 1000), seq: seq})
	}
	nop := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		d := Time(seq % 7)
		if seq%10 == 0 {
			d = 1 << 30
		}
		q.push(event{at: now + d, seq: seq, fn: nop})
		now = popEvent(&q).at
	})
	if allocs != 0 {
		t.Fatalf("warm push/pop allocates %.1f times per cycle, want 0", allocs)
	}
}

// eventLess is the engine's dispatch order: time, then insertion sequence.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// refQueue is the test oracle's second opinion: a plain typed binary heap
// dispatching in the same (time, sequence) order.
type refQueue struct {
	heap []event
}

func (q *refQueue) len() int { return len(q.heap) }

func (q *refQueue) push(ev event) {
	q.heap = append(q.heap, ev)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *refQueue) head() (event, bool) {
	if len(q.heap) == 0 {
		return event{}, false
	}
	return q.heap[0], true
}

func (q *refQueue) pop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	q.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			best = r
		}
		if !eventLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// popEvent pops q's head as a value.
func popEvent(q *eventQueue) event {
	var ev event
	q.pop(&ev)
	return ev
}

// sameEvent compares the ordering identity of two events (the fn field is
// not comparable).
func sameEvent(a, b event) bool { return a.at == b.at && a.seq == b.seq }

// TestQueueFIFOOrder checks same-time events dispatch in insertion order,
// whether they were pushed before the clock reached their time (into the
// far tier, handed over later) or at it.
func TestQueueFIFOOrder(t *testing.T) {
	var q eventQueue
	// Scheduled before the clock reaches 100.
	q.push(event{at: 100, seq: 1})
	q.push(event{at: 0, seq: 2})
	if got := popEvent(&q); got.seq != 2 {
		t.Fatalf("pop seq = %d, want 2", got.seq)
	}
	// Clock now at 100 (a run-through: no pop got it there).
	q.push(event{at: 100, seq: 3})
	q.push(event{at: 100, seq: 4})
	for want := uint64(1); want <= 4; want++ {
		if want == 2 {
			continue
		}
		if got := popEvent(&q); got.seq != want {
			t.Fatalf("pop seq = %d, want %d", got.seq, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty: %d", q.len())
	}
}

// BenchmarkEngineSchedule measures raw schedule/dispatch throughput: each
// iteration pushes one event through After and dispatches one, holding the
// queue at a realistic depth.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, depth := range []int{16, 1024} {
		b.Run(fmt.Sprint("depth", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				e.At(Time(i), func() {})
			}
			nop := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			var ev event
			for i := 0; i < b.N; i++ {
				e.After(Duration(i%7), nop)
				e.queue.pop(&ev)
				e.now = ev.at
			}
		})
	}
}

// BenchmarkEngineScheduleAtNow isolates scheduling at the current instant.
func BenchmarkEngineScheduleAtNow(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	var ev event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(0, nop)
		e.queue.pop(&ev)
	}
}

// holdShare is one slice of a hold model's delta histogram: share of the
// pushes land uniformly in [lo, hi) ps past the popped event.
type holdShare struct {
	share  float64
	lo, hi Time
}

// Push-delta histograms recorded from the engine at seed 1, at the
// benchmark's default sizes. kv_crash keeps ~740 events pending, most of
// them mail and MPB accesses a few hundred ns ahead, with rescue deadlines
// and retransmit timers far behind; svm_pingpong keeps 2.4 pending, half at
// the current instant and the rest spread up to a few µs.
var (
	holdDeep = []holdShare{
		{0.135, 0, 1},
		{0.071, 1 << 14, 1 << 17},
		{0.703, 1 << 17, 1 << 18},
		{0.027, 1 << 18, 1 << 22},
		{0.029, 1 << 25, 1 << 27},
		{0.035, 1 << 28, 1 << 29},
	}
	holdShallow = []holdShare{
		{0.570, 0, 1},
		{0.285, 1 << 15, 1 << 16},
		{0.072, 1 << 17, 1 << 18},
		{0.071, 1 << 21, 1 << 22},
		{0.002, 1 << 29, 1 << 30},
	}
)

// holdDeltas draws n deltas from hist.
func holdDeltas(rng *rand.Rand, n int, hist []holdShare) []Time {
	deltas := make([]Time, n)
	for i := range deltas {
		r := rng.Float64()
		s := hist[len(hist)-1]
		for _, h := range hist {
			if r < h.share {
				s = h
				break
			}
			r -= h.share
		}
		deltas[i] = s.lo + Time(rng.Int63n(int64(s.hi-s.lo)))
	}
	return deltas
}

// BenchmarkQueueHold is the classic hold model: pop the minimum, push the
// minimum plus a delta, at a constant number of pending events. In the
// pendingN subcases nine deltas in ten are near (under 10 ns, a mail or a
// memory access) and one is far (a kernel deadline or timer tick,
// 0.5-1 ms). deep and shallow draw their deltas from the histograms the
// engine records on kv_crash and svm_pingpong, at those workloads' depths.
func BenchmarkQueueHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	deltas := make([]Time, 4096)
	for i := range deltas {
		deltas[i] = Time(rng.Intn(10_000))
		if rng.Intn(10) == 0 {
			deltas[i] = 1<<29 + Time(rng.Int63n(1<<29))
		}
	}
	for _, pending := range []int{32, 512, 1024} {
		b.Run(fmt.Sprint("pending", pending), func(b *testing.B) {
			benchHold(b, pending, deltas)
		})
	}
	b.Run("deep", func(b *testing.B) { benchHold(b, 740, holdDeltas(rng, 4096, holdDeep)) })
	b.Run("shallow", func(b *testing.B) { benchHold(b, 3, holdDeltas(rng, 4096, holdShallow)) })
}

func benchHold(b *testing.B, pending int, deltas []Time) {
	var q eventQueue
	var ev event
	var seq uint64
	for i := 0; i < pending; i++ {
		seq++
		q.push(event{at: deltas[i%len(deltas)], seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.pop(&ev)
		seq++
		q.push(event{at: ev.at + deltas[i%len(deltas)], seq: seq})
	}
}
