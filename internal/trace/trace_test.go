package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"metalsvm/internal/sim"
)

// record appends an event to b the way a stream's ring subscription does.
func record(b *Buffer, at sim.Time, core int, kind Kind, arg1, arg2 uint64) {
	b.add(Event{At: at, Core: int32(core), Kind: kind, Arg1: arg1, Arg2: arg2})
}

func TestEmitAndOrder(t *testing.T) {
	b := NewBuffer(8)
	record(b, 100, 0, KindFault, 1, 0)
	record(b, 200, 1, KindMailSend, 2, 3)
	ev := b.Events()
	if len(ev) != 2 || ev[0].At != 100 || ev[1].Core != 1 {
		t.Fatalf("events = %v", ev)
	}
	if b.Dropped() != 0 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
}

func TestNilBufferSafe(t *testing.T) {
	var b *Buffer
	if b.Events() != nil || b.Len() != 0 || b.Dropped() != 0 {
		t.Fatal("nil buffer misbehaves")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		record(b, simTime(i), 0, KindFault, uint64(i), 0)
	}
	ev := b.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d", len(ev))
	}
	// Chronological and the newest four.
	for i, e := range ev {
		if e.Arg1 != uint64(6+i) {
			t.Fatalf("event %d arg %d, want %d", i, e.Arg1, 6+i)
		}
	}
	if b.Dropped() != 6 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
}

func simTime(i int) sim.Time { return sim.Time(i) * 10 }

func TestSummarize(t *testing.T) {
	b := NewBuffer(16)
	record(b, 10, 0, KindFault, 0, 0)
	record(b, 20, 0, KindFault, 0, 0)
	record(b, 30, 1, KindBarrier, 0, 0)
	s := Summarize(b.Events())
	if s.Total != 3 || s.ByKind[KindFault] != 2 || s.ByCore[1] != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.First != 10 || s.Last != 30 {
		t.Fatalf("range [%d,%d]", s.First, s.Last)
	}
	var sb strings.Builder
	WriteSummary(&sb, s)
	out := sb.String()
	if !strings.Contains(out, "fault") || !strings.Contains(out, "barrier") {
		t.Fatalf("summary output:\n%s", out)
	}
}

func TestFilters(t *testing.T) {
	b := NewBuffer(16)
	record(b, 10, 0, KindFault, 0, 0)
	record(b, 20, 1, KindFault, 0, 0)
	record(b, 30, 1, KindMailSend, 0, 0)
	got := Filter(b.Events(), OnCore(1), OfKind(KindFault))
	if len(got) != 1 || got[0].At != 20 {
		t.Fatalf("filtered = %v", got)
	}
	got = Filter(b.Events(), Between(15, 35))
	if len(got) != 2 {
		t.Fatalf("time filter = %v", got)
	}
}

// TestTimelineFormat pins the line a race report's timeline prints for
// each event: its kind and its core.
func TestTimelineFormat(t *testing.T) {
	b := NewBuffer(4)
	record(b, 1_500_000, 3, KindOwnerTransfer, 7, 9)
	line := b.Events()[0].String()
	if !strings.Contains(line, "owner-transfer") || !strings.Contains(line, "core3") {
		t.Fatalf("timeline: %q", line)
	}
}

// TestWrappedOrderingContract pins the Events() contract after wrap-around:
// the window starts at the oldest retained event and keeps emission order,
// which stays monotonic per core even when cores interleave.
func TestWrappedOrderingContract(t *testing.T) {
	b := NewBuffer(4)
	// Two cores emit alternately; core 1 runs ahead of core 0 (legal:
	// emission order is execution order, not global time order).
	record(b, 10, 0, KindFault, 1, 0)
	record(b, 100, 1, KindFault, 2, 0)
	record(b, 20, 0, KindFault, 3, 0)
	record(b, 200, 1, KindFault, 4, 0)
	record(b, 30, 0, KindFault, 5, 0) // wraps: overwrites Arg1=1
	record(b, 300, 1, KindFault, 6, 0)

	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
	ev := b.Events()
	wantArgs := []uint64{3, 4, 5, 6} // emission order from the oldest retained
	if len(ev) != len(wantArgs) {
		t.Fatalf("retained %d events", len(ev))
	}
	perCoreLast := map[int32]sim.Time{}
	for i, e := range ev {
		if e.Arg1 != wantArgs[i] {
			t.Fatalf("event %d = %+v, want Arg1 %d", i, e, wantArgs[i])
		}
		if prev, ok := perCoreLast[e.Core]; ok && e.At < prev {
			t.Errorf("core %d goes backwards: %d after %d", e.Core, e.At, prev)
		}
		perCoreLast[e.Core] = e.At
	}
	// The window is NOT globally time-sorted: core 1's At=200 precedes core
	// 0's At=30 in emission order. The contract only promises per-core
	// monotonicity; this pins that we do not silently start sorting.
	if ev[1].At < ev[2].At {
		t.Fatalf("window unexpectedly globally sorted: %v", ev)
	}
}

// TestSummaryCarriesDropCount: Buffer.Summary includes the wrap drop count
// and WriteSummary surfaces it.
func TestSummaryCarriesDropCount(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		record(b, simTime(i), 0, KindFault, uint64(i), 0)
	}
	s := b.Summary()
	if s.Dropped != 3 || s.Total != 2 {
		t.Fatalf("summary = %+v", s)
	}
	var sb strings.Builder
	WriteSummary(&sb, s)
	if !strings.Contains(sb.String(), "3 older events dropped") {
		t.Fatalf("summary output lacks drop count:\n%s", sb.String())
	}
	// A fresh buffer reports zero drops and prints none.
	sb.Reset()
	WriteSummary(&sb, NewBuffer(2).Summary())
	if strings.Contains(sb.String(), "dropped") {
		t.Fatalf("unwrapped summary mentions drops:\n%s", sb.String())
	}
	var nilBuf *Buffer
	if s := nilBuf.Summary(); s.Total != 0 || s.ByKind == nil {
		t.Fatalf("nil summary = %+v", s)
	}
}

// Property: the ring never loses more than capacity of the most recent
// events, and Events() is always chronological for monotone input.
func TestRingProperty(t *testing.T) {
	f := func(n uint8, capSel uint8) bool {
		capacity := 1 + int(capSel)%16
		b := NewBuffer(capacity)
		total := int(n)
		for i := 0; i < total; i++ {
			record(b, simTime(i), 0, KindFault, uint64(i), 0)
		}
		ev := b.Events()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(ev) != want {
			return false
		}
		for i := 1; i < len(ev); i++ {
			if ev[i].At < ev[i-1].At {
				return false
			}
		}
		// The newest event is always retained.
		return total == 0 || ev[len(ev)-1].Arg1 == uint64(total-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
