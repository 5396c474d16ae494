package trace

import (
	"reflect"
	"testing"
)

// A nil stream and a kind nobody subscribed to are the two states every
// uninstrumented emission site is in: both must be no-ops that allocate
// nothing, and a nil stream has no ring to read.
func TestNilStreamAndUnsubscribedKindAreFree(t *testing.T) {
	var none *Stream
	s := new(Stream)
	calls := 0
	s.Subscribe(func(Event) { calls++ }, KindStore)
	allocs := testing.AllocsPerRun(100, func() {
		none.Emit(1, 0, KindLoad, 0x1000, 8)
		s.Emit(1, 0, KindLoad, 0x1000, 8)
	})
	if allocs != 0 || calls != 0 {
		t.Fatalf("unobserved emission: %v allocs/op, %d deliveries, want 0 and 0", allocs, calls)
	}
	if none.On(KindLoad) || s.On(KindLoad) || !s.On(KindStore) {
		t.Fatalf("On: nil %v, unsubscribed %v, subscribed %v", none.On(KindLoad), s.On(KindLoad), s.On(KindStore))
	}
	if none.Ring() != nil || none.Ring().Events() != nil || s.Ring().Len() != 0 {
		t.Fatal("a stream without a ring retained something")
	}
	// A subscribed kind delivers without allocating either: the event goes
	// to the subscribers by value.
	if allocs := testing.AllocsPerRun(100, func() { s.Emit(1, 0, KindStore, 0x1000, 8) }); allocs != 0 {
		t.Fatalf("delivery allocates %v/op", allocs)
	}
}

func TestSubscribersRunInSubscriptionOrder(t *testing.T) {
	s := new(Stream)
	var order []string
	note := func(name string) func(Event) {
		return func(e Event) { order = append(order, name+":"+e.Kind.String()) }
	}
	s.Subscribe(note("a"), KindFault, KindLoad)
	s.Subscribe(note("b"), KindLoad)
	s.Subscribe(note("c"), KindFault, KindLoad)
	s.Emit(1, 0, KindLoad, 0, 0)
	s.Emit(2, 0, KindFault, 0, 0)
	s.Emit(3, 0, KindStore, 0, 0)
	want := []string{"a:load", "b:load", "c:load", "a:fault", "c:fault"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// The ring is the first subscriber of the protocol kinds even when it is
// installed after a checker, and the checkers' kinds flowing through the
// stream neither reach it nor count as dropped.
func TestRingRetainsOnlyProtocolKinds(t *testing.T) {
	s := new(Stream)
	var seenAtDelivery []int
	ring := NewBuffer(64)
	s.Subscribe(func(Event) { seenAtDelivery = append(seenAtDelivery, ring.Len()) }, KindFault, KindLoad)
	s.SetRing(nil) // no ring yet: a no-op
	s.SetRing(ring)
	if s.Ring() != ring {
		t.Fatal("Ring() does not return the installed ring")
	}
	for k := Kind(0); k < kindCount; k++ {
		s.Emit(simTime(int(k)), 0, k, uint64(k), 0)
	}
	events := ring.Events()
	if len(events) != int(ringKinds) || ringKinds != 16 || ring.Dropped() != 0 {
		t.Fatalf("ring holds %d events (%d dropped), want the %d protocol kinds", len(events), ring.Dropped(), ringKinds)
	}
	for i, e := range events {
		if e.Kind != Kind(i) || e.Kind > KindDirReclaim {
			t.Fatalf("event %d is %v", i, e)
		}
	}
	// The fault reached the ring before the earlier subscriber saw it; the
	// load never reached the ring at all.
	if !reflect.DeepEqual(seenAtDelivery, []int{1, 16}) {
		t.Fatalf("ring length seen by the other subscriber: %v, want [1 16]", seenAtDelivery)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second ring was accepted")
		}
	}()
	s.SetRing(NewBuffer(1))
}

func TestEveryKindIsNamed(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if KindBarrier.String() != "barrier" || KindBarrierDone.String() != "barrier-done" ||
		KindOwnerTransfer.String() != "owner-transfer" || KindOwnerYield.String() != "owner-yield" {
		t.Fatal("entry and completion kinds are not told apart by name")
	}
}
