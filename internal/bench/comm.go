package bench

import (
	"metalsvm/internal/core"
	"metalsvm/internal/cpu"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// CommPoint is one message size of the RCCE transfer sweep: the classic
// companion measurement to the paper's Figure 6, characterizing the
// baseline library's staged-through-MPB transfer path.
type CommPoint struct {
	Bytes     int
	LatencyUS float64 // one-way latency for one message of this size
	MBPerSec  float64
}

// CommSweepSizes is the default size axis.
func CommSweepSizes() []int {
	return []int{32, 128, 512, 2048, 8192, 32768}
}

// CommSweep measures RCCE send/recv between two cores at the given mesh
// distance for each size (rounds messages each).
func CommSweep(peer int, sizes []int, rounds int) []CommPoint {
	if sizes == nil {
		sizes = CommSweepSizes()
	}
	var out []CommPoint
	for _, size := range sizes {
		chipCfg := ShrunkChip(scc.PaperSCC())
		b, err := core.NewBaseline(&chipCfg, []int{0, peer})
		if err != nil {
			panic(err)
		}
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i)
		}
		var elapsed sim.Duration
		b.Run(func(rank int, c *cpu.Core) {
			if rank == 0 {
				start := c.Now()
				for i := 0; i < rounds; i++ {
					b.Comm.Send(0, msg, 1)
				}
				elapsed = c.Now() - start
			} else {
				buf := make([]byte, size)
				for i := 0; i < rounds; i++ {
					b.Comm.Recv(1, buf, 0)
				}
			}
		})
		us := elapsed.Microseconds() / float64(rounds)
		out = append(out, CommPoint{
			Bytes:     size,
			LatencyUS: us,
			MBPerSec:  float64(size) / us, // bytes/us == MB/s
		})
	}
	return out
}
