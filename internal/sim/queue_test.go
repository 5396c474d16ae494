package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueEquivalence drives quadQueue and refQueue with identical
// randomized push/pop workloads (fixed seed: the test itself is
// deterministic) and checks both against a sorted-slice oracle. The engine
// clock follows the dispatch rule — it advances to every popped event's
// timestamp — so the quadQueue's now-FIFO path is exercised heavily.
func TestQueueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var fast quadQueue
		var ref refQueue
		var oracle []event
		var now Time
		var seq uint64

		push := func(at Time) {
			seq++
			ev := event{at: at, seq: seq}
			fast.push(ev, now)
			ref.push(ev)
			oracle = append(oracle, ev)
		}
		pop := func() {
			sort.Slice(oracle, func(i, j int) bool { return eventLess(oracle[i], oracle[j]) })
			want := oracle[0]
			oracle = oracle[1:]
			fh, okF := fast.headTime()
			rh, okR := ref.head()
			if !okF || !okR || fh != want.at || !sameEvent(rh, want) {
				t.Fatalf("trial %d: head fast=%v(%v) ref=%v(%v), want %v", trial, fh, okF, rh, okR, want)
			}
			fp, rp := fast.pop(), ref.pop()
			if !sameEvent(fp, want) || !sameEvent(rp, want) {
				t.Fatalf("trial %d: pop fast=%v ref=%v, want %v", trial, fp, rp, want)
			}
			if fp.at < now {
				t.Fatalf("trial %d: time went backwards: %d < %d", trial, fp.at, now)
			}
			now = fp.at
		}

		for op := 0; op < 400; op++ {
			if len(oracle) == 0 || rng.Intn(3) != 0 {
				// Bias toward now-scheduling to stress the FIFO path.
				at := now
				if rng.Intn(2) == 0 {
					at += Time(rng.Intn(100))
				}
				push(at)
			} else {
				pop()
			}
		}
		for len(oracle) > 0 {
			pop()
		}
		if fast.len() != 0 || ref.len() != 0 {
			t.Fatalf("trial %d: queues not drained: fast=%d ref=%d", trial, fast.len(), ref.len())
		}
	}
}

// refQueue is the test oracle's second opinion: a plain typed binary heap
// with no now-FIFO, dispatching in the same (time, sequence) order.
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

// sameEvent compares the ordering identity of two events (the fn field is
// not comparable).
func sameEvent(a, b event) bool { return a.at == b.at && a.seq == b.seq }

// TestQueueFIFOOrder checks the append fast path preserves insertion order
// among same-time events, including against heap entries scheduled for that
// time earlier (which must dispatch first: smaller sequence numbers).
func TestQueueFIFOOrder(t *testing.T) {
	var q quadQueue
	// Scheduled before the clock reaches 100: goes to the heap.
	q.push(event{at: 100, seq: 1}, 0)
	q.push(event{at: 0, seq: 2}, 0)
	if got := q.pop(); got.seq != 2 {
		t.Fatalf("pop seq = %d, want 2", got.seq)
	}
	// Clock now at 100: same-time pushes take the FIFO.
	q.push(event{at: 100, seq: 3}, 100)
	q.push(event{at: 100, seq: 4}, 100)
	for want := uint64(1); want <= 4; want++ {
		if want == 2 {
			continue
		}
		if got := q.pop(); got.seq != want {
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
		b.Run(benchName("depth", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				e.At(Time(i), func() {})
			}
			nop := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(Duration(i%7), nop)
				ev := e.queue.pop()
				e.now = ev.at
			}
		})
	}
}

// BenchmarkEngineScheduleAtNow isolates the FIFO append fast path.
func BenchmarkEngineScheduleAtNow(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(0, nop)
		e.queue.pop()
	}
}

func benchName(prefix string, n int) string {
	if n >= 1024 {
		return prefix + "1k"
	}
	return prefix + "16"
}
