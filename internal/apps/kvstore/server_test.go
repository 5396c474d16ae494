package kvstore

import (
	"testing"

	"metalsvm/internal/mailbox"
)

// TestServerQueueAllocFree: once a server's queue has admitted a full bound,
// admitting and draining a full bound again allocates nothing — also while
// handlers admit between the serve loop's takes — and requests leave in the
// order they were admitted.
func TestServerQueueAllocFree(t *testing.T) {
	a := &App{p: DefaultParams()}
	st := &serverState{}
	var m mailbox.Msg
	var admitted, taken uint32
	admit := func() {
		admitted++
		mailbox.PutU32(m.Payload[:], 3, admitted)
		a.handleRequest(st, nil, m)
	}
	take := func() {
		taken++
		if rq := st.pop(); rq.token != taken {
			t.Fatalf("took request %d, want %d", rq.token, taken)
		}
	}
	pass := func() {
		for st.queued() < a.p.QueueBound {
			admit()
		}
		for i := 0; i < a.p.QueueBound; i++ {
			take()
			admit()
		}
		for st.queued() > 0 {
			take()
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("a warm pass over the queue bound allocates %v times, want 0", allocs)
	}
	if st.Shed != 0 || taken != admitted {
		t.Fatalf("shed %d, took %d of %d admitted", st.Shed, taken, admitted)
	}
}
