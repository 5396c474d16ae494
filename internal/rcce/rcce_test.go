package rcce

import (
	"bytes"
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

func newComm(t *testing.T, cores []int) (*sim.Engine, *scc.Chip, *Comm) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	chip, err := scc.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := New(chip, cores)
	if err != nil {
		t.Fatal(err)
	}
	return eng, chip, comm
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := scc.DefaultConfig()
	cfg.PrivateMemPerCore = 1 << 20
	cfg.SharedMem = 16 << 20
	chip, err := scc.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {0, 0}, {99}} {
		if _, err := New(chip, bad); err == nil {
			t.Errorf("core list %v accepted", bad)
		}
	}
}

func TestSendRecvSmall(t *testing.T) {
	eng, chip, comm := newComm(t, []int{0, 30})
	want := pattern(100, 3)
	got := make([]byte, 100)
	chip.Boot(0, func(c *cpu.Core) { comm.Send(0, want, 1) })
	chip.Boot(30, func(c *cpu.Core) { comm.Recv(1, got, 0) })
	eng.Run()
	eng.Shutdown()
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted")
	}
}

func TestSendRecvMultiChunk(t *testing.T) {
	eng, chip, comm := newComm(t, []int{0, 47})
	n := comm.slotSize*3 + 123 // force multiple chunks + ragged tail
	want := pattern(n, 9)
	got := make([]byte, n)
	chip.Boot(0, func(c *cpu.Core) { comm.Send(0, want, 1) })
	chip.Boot(47, func(c *cpu.Core) { comm.Recv(1, got, 0) })
	eng.Run()
	eng.Shutdown()
	if !bytes.Equal(got, want) {
		t.Fatal("multi-chunk payload corrupted")
	}
}

func TestSendIsSynchronous(t *testing.T) {
	eng, chip, comm := newComm(t, []int{0, 1})
	var sendDone, recvStart sim.Time
	chip.Boot(0, func(c *cpu.Core) {
		comm.Send(0, pattern(64, 1), 1)
		sendDone = c.Now()
	})
	chip.Boot(1, func(c *cpu.Core) {
		c.Proc().Advance(sim.Microseconds(100))
		c.Sync()
		recvStart = c.Now()
		comm.Recv(1, make([]byte, 64), 0)
	})
	eng.Run()
	eng.Shutdown()
	if sendDone < recvStart {
		t.Fatalf("send completed at %v before receiver arrived at %v",
			sendDone.Microseconds(), recvStart.Microseconds())
	}
}

func TestBidirectionalExchangeWithIsend(t *testing.T) {
	// The symmetric exchange that deadlocks with blocking sends: both
	// ranks isend to each other, then wait. iRCCE must complete it.
	eng, chip, comm := newComm(t, []int{0, 30})
	n := comm.slotSize + 17
	a2b, b2a := pattern(n, 5), pattern(n, 11)
	gotB, gotA := make([]byte, n), make([]byte, n)
	chip.Boot(0, func(c *cpu.Core) {
		s := comm.Isend(0, a2b, 1)
		r := comm.Irecv(0, gotA, 1)
		comm.Wait(0, s, r)
	})
	chip.Boot(30, func(c *cpu.Core) {
		s := comm.Isend(1, b2a, 0)
		r := comm.Irecv(1, gotB, 0)
		comm.Wait(1, s, r)
	})
	eng.Run()
	eng.Shutdown()
	if !bytes.Equal(gotB, a2b) || !bytes.Equal(gotA, b2a) {
		t.Fatal("exchange corrupted")
	}
}

func TestRingHaloExchange(t *testing.T) {
	// Every rank exchanges with both neighbours simultaneously — the
	// Laplace communication pattern. Uses both staging slots per core.
	cores := []int{0, 2, 10, 30, 40, 46}
	eng, chip, comm := newComm(t, cores)
	n := len(cores)
	const msg = 512
	results := make([][]byte, n)
	for r := 0; r < n; r++ {
		r := r
		results[r] = make([]byte, 2*msg)
		chip.Boot(cores[r], func(c *cpu.Core) {
			next, prev := (r+1)%n, (r+n-1)%n
			sUp := comm.Isend(r, pattern(msg, byte(r)), next)
			sDown := comm.Isend(r, pattern(msg, byte(r)+128), prev)
			rUp := comm.Irecv(r, results[r][:msg], prev)   // prev's up message
			rDown := comm.Irecv(r, results[r][msg:], next) // next's down message
			comm.Wait(r, sUp, sDown, rUp, rDown)
		})
	}
	eng.Run()
	eng.Shutdown()
	for r := 0; r < n; r++ {
		prev, next := (r+n-1)%n, (r+1)%n
		if !bytes.Equal(results[r][:msg], pattern(msg, byte(prev))) {
			t.Fatalf("rank %d: up-halo corrupted", r)
		}
		if !bytes.Equal(results[r][msg:], pattern(msg, byte(next)+128)) {
			t.Fatalf("rank %d: down-halo corrupted", r)
		}
	}
}

func TestBackToBackMessagesKeepOrder(t *testing.T) {
	eng, chip, comm := newComm(t, []int{0, 1})
	var got [3][64]byte
	chip.Boot(0, func(c *cpu.Core) {
		for i := 0; i < 3; i++ {
			comm.Send(0, pattern(64, byte(i+1)), 1)
		}
	})
	chip.Boot(1, func(c *cpu.Core) {
		for i := 0; i < 3; i++ {
			comm.Recv(1, got[i][:], 0)
		}
	})
	eng.Run()
	eng.Shutdown()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(got[i][:], pattern(64, byte(i+1))) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
}

func TestBarrier(t *testing.T) {
	cores := []int{0, 5, 11, 30, 41, 47}
	eng, chip, comm := newComm(t, cores)
	arrive := make([]sim.Time, len(cores))
	leave := make([]sim.Time, len(cores))
	for r := range cores {
		r := r
		chip.Boot(cores[r], func(c *cpu.Core) {
			for round := 0; round < 5; round++ {
				c.Proc().Advance(sim.Duration(uint64(r+1) * 10_000_000)) // skew
				c.Sync()
				if round == 2 {
					arrive[r] = c.Now()
				}
				comm.Barrier(r)
				if round == 2 {
					leave[r] = c.Now()
				}
			}
		})
	}
	eng.Run()
	eng.Shutdown()
	var maxArrive sim.Time
	for _, a := range arrive {
		if a > maxArrive {
			maxArrive = a
		}
	}
	for r, l := range leave {
		if l < maxArrive {
			t.Fatalf("rank %d left round-2 barrier at %v before last arrival %v",
				r, l.Microseconds(), maxArrive.Microseconds())
		}
	}
}

func TestTransferLatencyScalesWithDistance(t *testing.T) {
	elapse := func(peer int) sim.Duration {
		eng, chip, comm := newComm(t, []int{0, peer})
		var d sim.Duration
		msg := make([]byte, 2048)
		chip.Boot(0, func(c *cpu.Core) {
			start := c.Now()
			comm.Send(0, msg, 1)
			d = c.Now() - start
		})
		chip.Boot(peer, func(c *cpu.Core) {
			comm.Recv(1, make([]byte, 2048), 0)
		})
		eng.Run()
		eng.Shutdown()
		return d
	}
	near, far := elapse(1), elapse(47)
	if far <= near {
		t.Fatalf("far transfer (%v) not slower than near (%v)", far, near)
	}
}

func TestDeterministicRing(t *testing.T) {
	run := func() sim.Time {
		cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
		eng, chip, comm := newComm(t, cores)
		for r := range cores {
			r := r
			chip.Boot(cores[r], func(c *cpu.Core) {
				buf := make([]byte, 256)
				for i := 0; i < 5; i++ {
					s := comm.Isend(r, pattern(256, byte(r*i)), (r+1)%8)
					rc := comm.Irecv(r, buf, (r+7)%8)
					comm.Wait(r, s, rc)
				}
			})
		}
		end := eng.Run()
		eng.Shutdown()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
